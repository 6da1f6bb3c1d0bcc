"""Foil tasks: sentence classification, foil-word detection, correction.

All three tasks run against a binary-trained critic and against a tuned
mean-grounding-score baseline. Detection is hold-one-out: remove each
content word in turn, rescore, and blame the word whose removal raises the
score most (smallest index on ties). Correction substitutes each target
word at the foiled position and keeps the best-scoring one (lexicographic
ties).

A foil sentence is chunked once; its restored original and substitutions
take its phrases with one word swapped in (textproc.apply_edits), so only
hold-one-out variants are chunked again. The evaluation works one scene at
a time: the variants of the scene's examples (each sentence, then for a
foil its hold-one-out variants and sorted substitutions) are grounded in
one ground_many call and scored in one score_many call, one row per
distinct token sequence, so coinciding variants tie exactly, within an
example and across the examples of a scene.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import grounding, textproc
from .critic import (CriticHyper, CriticModel, TrainReport, _sigmoid,
                     train_classifier)
from .errors import ConfigurationError
from .worldsim import ATTRIBUTE_CATEGORIES, Dataset, Scene, Taxonomy


@dataclass
class FoilExample:
    scene_id: int
    tokens: list[str]
    label: bool                    # True when the sentence fits the scene
    phrases: list                  # the chunking of tokens
    foil_index: int | None = None
    correction: str | None = None


@dataclass
class FoilReport:
    """Accuracy of critic and baseline on the three foil tasks."""

    classification: float
    detection: float
    correction: float
    baseline_classification: float
    baseline_detection: float
    baseline_correction: float
    tau: float
    num_examples: int
    num_foils: int

    def to_json(self) -> dict:
        return {
            "format": 1,
            "num_examples": self.num_examples,
            "num_foils": self.num_foils,
            "tau": self.tau,
            "critic": {"classification": self.classification,
                       "detection": self.detection,
                       "correction": self.correction},
            "baseline": {"classification": self.baseline_classification,
                         "detection": self.baseline_detection,
                         "correction": self.baseline_correction},
        }

    def to_table(self) -> str:
        header = (f"{'method':<16}{'classification':>16}"
                  f"{'detection':>12}{'correction':>12}")
        rows = [
            ("phrase critic", self.classification, self.detection,
             self.correction),
            ("grounding mean", self.baseline_classification,
             self.baseline_detection, self.baseline_correction),
        ]
        lines = [header]
        for name, a, b, c in rows:
            lines.append(f"{name:<16}{100 * a:>15.2f}%"
                         f"{100 * b:>11.2f}%{100 * c:>11.2f}%")
        return "\n".join(lines)


def build_foil_examples(dataset: Dataset, split: str) -> list[FoilExample]:
    """Balanced relevant/foil examples: each foil with its source sentence."""
    splits = {s.scene_id: s.split for s in dataset.scenes}
    examples = []
    for sentence in dataset.sentences:
        if splits[sentence.scene_id] != split or sentence.foil is None:
            continue
        foil = sentence.foil
        phrases = textproc.chunk_sentence(sentence.tokens, dataset.taxonomy)
        original, original_phrases = textproc.apply_edits(
            sentence.tokens, phrases, [(foil.index, foil.original)])
        examples.append(FoilExample(sentence.scene_id, list(original), True,
                                    original_phrases))
        examples.append(FoilExample(sentence.scene_id, list(sentence.tokens),
                                    False, phrases, foil.index,
                                    foil.original))
    return examples


def _ground_examples(examples, scenes, taxonomy, config):
    """Each example's grounded phrases, with one ground_many call per run of
    examples from one scene."""
    return [seq for scene_id, run in groupby(examples, lambda ex: ex.scene_id)
            for seq in grounding.ground_many([ex.phrases for ex in run],
                                             scenes[scene_id], taxonomy,
                                             config)]


def train_foil_classifier(dataset: Dataset, hyper: CriticHyper | None = None,
                          seed: int = 0) -> tuple[CriticModel, TrainReport]:
    """Train a binary critic on the train-split foil examples."""
    scenes = {s.scene_id: s for s in dataset.scenes}

    def prepare(split):
        examples = build_foil_examples(dataset, split)
        return [(seq, ex.label) for seq, ex in zip(_ground_examples(
            examples, scenes, dataset.taxonomy, dataset.grounder), examples)
            if seq]

    model = CriticModel.for_taxonomy(dataset.taxonomy, hyper, seed,
                                     objective="binary")
    report = train_classifier(model, prepare("train"), prepare("val"),
                              seed=seed)
    return model, report


@dataclass
class ClassifyResult:
    probability: float
    relevant: bool
    zero_phrases: bool = False


def classify(tokens, scene: Scene, model: CriticModel, taxonomy: Taxonomy,
             config) -> ClassifyResult:
    """Label a sentence relevant when sigmoid(S_r) exceeds one half.

    A sentence with no chunkable phrases cannot be scored and is labelled
    a foil, flagged as such.
    """
    phrases = textproc.chunk_sentence(tokens, taxonomy)
    if not phrases:
        return ClassifyResult(0.0, False, zero_phrases=True)
    [prob] = _variant_probs(model, scene, taxonomy, config,
                            [(tuple(tokens), phrases)])
    return ClassifyResult(prob, prob > 0.5)


def content_word_indices(tokens, taxonomy: Taxonomy) -> list[int]:
    out = []
    for i, tok in enumerate(tokens):
        cat = taxonomy.category_of(tok)
        if cat in ATTRIBUTE_CATEGORIES or cat == "part":
            out.append(i)
    return out


def _critic_probs(model, keys, seqs) -> list[float]:
    """sigmoid(S_r) of grounded variants keyed by their token tuples, with
    one score_many row per distinct key with phrases; 0 without phrases."""
    first = {}
    for key, seq in zip(keys, seqs):
        if seq:
            first.setdefault(key, seq)
    probs = dict(zip(first, _sigmoid(model.score_many(list(
        first.values()))).tolist())) if first else {}
    return [probs.get(key, 0.0) for key in keys]


def _variant_probs(model, scene, taxonomy, config, variants) -> list[float]:
    """_critic_probs of (token tuple, phrases) variants, grounded in one
    ground_many call."""
    keys, sentences = zip(*variants)
    return _critic_probs(model, keys, grounding.ground_many(
        sentences, scene, taxonomy, config))


def _holdout_variants(tokens, taxonomy) -> tuple[list[int], list[tuple]]:
    """The content-word indices and, without each, (token tuple, phrases)."""
    candidates = content_word_indices(tokens, taxonomy)
    if not candidates:
        raise ValueError("sentence has no content words")
    return candidates, [(v, textproc.chunk_sentence(v, taxonomy)) for v in (
        tuple(tokens[:i]) + tuple(tokens[i + 1:]) for i in candidates)]


def _substitution_variants(tokens, foil_index, targets, phrases):
    """The targets in lexicographic order and, for each, the sentence with
    it at foil_index: its token tuple and its phrases, edited from phrases
    (the chunking of tokens) by textproc.apply_edits."""
    if not targets:
        raise ValueError("empty correction target set")
    ordered = sorted(targets)
    return ordered, [textproc.apply_edits(tokens, phrases,
                                          [(foil_index, target)])
                     for target in ordered]


def _first_max(options, scores):
    """The option whose variant scores highest; np.argmax takes the first
    maximum, so ties go to the smallest index or the first target."""
    return options[int(np.argmax(scores))]


def detect_foil_word(tokens, scene: Scene, model: CriticModel,
                     taxonomy: Taxonomy, config) -> int:
    """Index of the content word whose removal most raises the score."""
    candidates, variants = _holdout_variants(tokens, taxonomy)
    return _first_max(candidates, _variant_probs(model, scene, taxonomy,
                                                 config, variants))


def correct_foil_word(tokens, foil_index: int, scene: Scene,
                      model: CriticModel, taxonomy: Taxonomy, config) -> str:
    """Best-scoring substitution for the foiled word among the other
    same-category tokens (flip_pool); each has the lexicon entry of the
    word it replaces, so editing the chunking equals chunking again."""
    ordered, variants = _substitution_variants(
        tokens, foil_index, taxonomy.flip_pool(tokens[foil_index]),
        textproc.chunk_sentence(tokens, taxonomy))
    return _first_max(ordered, _variant_probs(model, scene, taxonomy,
                                              config, variants))


def baseline_classify(tokens, scene: Scene, tau: float, taxonomy: Taxonomy,
                      config) -> bool:
    """Mean grounding score thresholded at tau; no phrases means foil."""
    return grounding.mean_grounding_score(grounding.ground_all(
        textproc.chunk_sentence(tokens, taxonomy), scene, taxonomy,
        config)) > tau


def tune_tau(examples, scenes, taxonomy: Taxonomy, config) -> float:
    """The accuracy-maximising threshold on the examples' mean grounding
    scores (_best_threshold)."""
    return _best_threshold(
        np.array([grounding.mean_grounding_score(seq) for seq
                  in _ground_examples(examples, scenes, taxonomy, config)]),
        np.array([ex.label for ex in examples]))


def _best_threshold(means, labels) -> float:
    """The smallest midpoint of consecutive distinct finite means with the
    best accuracy of means > tau; one below a lone mean, 0.0 without."""
    finite = np.unique(means[np.isfinite(means)])
    if len(finite) < 2:
        return float(finite[0] - 1.0) if len(finite) else 0.0
    midpoints = (finite[:-1] + finite[1:]) / 2.0
    # (means > tau) == labels holds for the positives above tau and the
    # negatives at or below it. The count over n is the float np.mean gives,
    # and argmax takes the first (smallest) best midpoint.
    positives = np.sort(means[labels])
    correct = len(positives) \
        - np.searchsorted(positives, midpoints, side="right") \
        + np.searchsorted(np.sort(means[~labels]), midpoints, side="right")
    return float(midpoints[np.argmax(correct / len(means))])


def run_foil_eval(dataset: Dataset, model: CriticModel, split: str = "test",
                  tau: float | None = None) -> FoilReport:
    """Evaluate critic and tuned baseline on the three foil tasks."""
    scenes = {s.scene_id: s for s in dataset.scenes}
    taxonomy, config = dataset.taxonomy, dataset.grounder
    examples = build_foil_examples(dataset, split)
    if not examples:
        raise ConfigurationError(f"no foil sentences in the {split} split")
    if tau is None:
        tau = tune_tau(build_foil_examples(dataset, "train"), scenes,
                       taxonomy, config)

    # The decisions of classify, detect_foil_word and correct_foil_word,
    # then of the baseline. The variants of one scene's examples (each
    # sentence, then for a foil its hold-outs and substitutions) are
    # grounded in one ground_many call, each phrase key once per call, and
    # scored in one critic call, one row per distinct token tuple.
    hits = [0] * 6  # the numerators of FoilReport's six accuracies, in order
    for scene_id, run in groupby(examples, lambda ex: ex.scene_id):
        variants, tasks = [], []
        for ex in run:
            at, candidates, targets = len(variants), (), ()
            variants.append((tuple(ex.tokens), ex.phrases))
            if not ex.label:
                candidates, held_out = _holdout_variants(ex.tokens, taxonomy)
                targets, substituted = _substitution_variants(
                    ex.tokens, ex.foil_index,
                    taxonomy.flip_pool(ex.tokens[ex.foil_index]), ex.phrases)
                variants += held_out + substituted
            tasks.append((ex, at, candidates, targets))
        keys, sentences = zip(*variants)
        seqs = grounding.ground_many(sentences, scenes[scene_id], taxonomy,
                                     config)
        scored = ((_critic_probs(model, keys, seqs), 0.5),
                  ([grounding.mean_grounding_score(q) for q in seqs], tau))
        for ex, at, candidates, targets in tasks:
            det = slice(at + 1, at + 1 + len(candidates))
            cor = slice(det.stop, det.stop + len(targets))
            for k, (scores, cut) in zip((0, 3), scored):
                hits[k] += (scores[at] > cut) == ex.label
                if not ex.label:
                    hits[k + 1] += _first_max(candidates,
                                              scores[det]) == ex.foil_index
                    hits[k + 2] += _first_max(targets,
                                              scores[cor]) == ex.correction

    n, foils = len(examples), sum(not ex.label for ex in examples)
    return FoilReport(*(h / d for h, d in zip(hits, (n, foils, foils) * 2)),
                      tau=float(tau), num_examples=n, num_foils=foils)
