"""Foil tasks: sentence classification, foil-word detection, correction.

All three tasks run against a binary-trained critic and against a tuned
mean-grounding-score baseline. Detection is hold-one-out: remove each
content word in turn, rescore, and blame the word whose removal raises the
score most (smallest index on ties). Correction substitutes each target
word at the foiled position and keeps the best-scoring one (lexicographic
ties).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        original = list(sentence.tokens)
        original[sentence.foil.index] = sentence.foil.original
        examples.append(FoilExample(sentence.scene_id, original, True))
        examples.append(FoilExample(sentence.scene_id, list(sentence.tokens),
                                    False, sentence.foil.index,
                                    sentence.foil.original))
    return examples


def _grounded(tokens, scene, taxonomy, config, features=None):
    phrases = textproc.chunk_sentence(list(tokens), taxonomy)
    if not phrases:
        return None
    return grounding.ground_all(phrases, scene, taxonomy, config, features)


def _features_by_scene(examples, scenes, taxonomy, config) -> dict:
    """One feature matrix per scene the examples mention."""
    features = {}
    for ex in examples:
        if ex.scene_id not in features:
            features[ex.scene_id] = grounding.scene_features(
                scenes[ex.scene_id], taxonomy, config)
    return features


def train_foil_classifier(dataset: Dataset, hyper: CriticHyper | None = None,
                          seed: int = 0) -> tuple[CriticModel, TrainReport]:
    """Train a binary critic on the train-split foil examples."""
    scenes = {s.scene_id: s for s in dataset.scenes}

    def prepare(split):
        examples = build_foil_examples(dataset, split)
        features = _features_by_scene(examples, scenes, dataset.taxonomy,
                                      dataset.grounder)
        prepared = []
        for ex in examples:
            seq = _grounded(ex.tokens, scenes[ex.scene_id], dataset.taxonomy,
                            dataset.grounder, features[ex.scene_id])
            if seq:
                prepared.append((seq, ex.label))
        return prepared

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
             config, features=None) -> ClassifyResult:
    """Label a sentence relevant when sigmoid(S_r) exceeds one half.

    A sentence with no chunkable phrases cannot be scored and is labelled
    a foil, flagged as such. features is the scene's feature matrix, if
    already computed.
    """
    seq = _grounded(tokens, scene, taxonomy, config, features)
    if seq is None:
        return ClassifyResult(0.0, False, zero_phrases=True)
    prob = float(_sigmoid(np.array(model.score(seq))))
    return ClassifyResult(prob, prob > 0.5)


def content_word_indices(tokens, taxonomy: Taxonomy) -> list[int]:
    out = []
    for i, tok in enumerate(tokens):
        cat = taxonomy.category_of(tok)
        if cat in ATTRIBUTE_CATEGORIES or cat == "part":
            out.append(i)
    return out


def _critic_scorer(model, scene, taxonomy, config, features):
    def score(tokens) -> float:
        seq = _grounded(tokens, scene, taxonomy, config, features)
        if seq is None:
            return 0.0
        return float(_sigmoid(np.array(model.score(seq))))
    return score


def _baseline_scorer(scene, taxonomy, config, features):
    def score(tokens) -> float:
        seq = _grounded(tokens, scene, taxonomy, config, features)
        if seq is None:
            return float("-inf")
        return grounding.mean_grounding_score(seq)
    return score


def _holdout_detect(tokens, taxonomy, score_fn) -> int:
    candidates = content_word_indices(tokens, taxonomy)
    if not candidates:
        raise ValueError("sentence has no content words")
    scores = []
    for idx in candidates:
        held_out = list(tokens[:idx]) + list(tokens[idx + 1:])
        scores.append(score_fn(held_out))
    best = int(np.argmax(scores))  # argmax takes the first maximum
    return candidates[best]


def detect_foil_word(tokens, scene: Scene, model: CriticModel,
                     taxonomy: Taxonomy, config, features=None) -> int:
    """Index of the content word whose removal most raises the score."""
    return _holdout_detect(
        tokens, taxonomy,
        _critic_scorer(model, scene, taxonomy, config, features))


def _substitution_correct(tokens, foil_index, targets, score_fn) -> str:
    if not targets:
        raise ValueError("empty correction target set")
    best_token = None
    best_score = None
    for target in sorted(targets):  # lexicographic tie-break
        substituted = list(tokens)
        substituted[foil_index] = target
        s = score_fn(substituted)
        if best_score is None or s > best_score:
            best_score = s
            best_token = target
    return best_token


def correct_foil_word(tokens, foil_index: int, scene: Scene,
                      model: CriticModel, taxonomy: Taxonomy, config,
                      targets=None, features=None) -> str:
    """Best-scoring substitution for the foiled word.

    The default target vocabulary is every same-category token other than
    the foiled word itself.
    """
    if targets is None:
        targets = taxonomy.flip_pool(tokens[foil_index])
    return _substitution_correct(
        tokens, foil_index, targets,
        _critic_scorer(model, scene, taxonomy, config, features))


def baseline_classify(tokens, scene: Scene, tau: float, taxonomy: Taxonomy,
                      config, features=None) -> bool:
    """Mean grounding score thresholded at tau; no phrases means foil."""
    seq = _grounded(tokens, scene, taxonomy, config, features)
    if seq is None:
        return False
    return grounding.mean_grounding_score(seq) > tau


def tune_tau(examples, scenes, taxonomy: Taxonomy, config) -> float:
    """Pick the accuracy-maximising threshold over observed mean scores.

    Candidates are the midpoints between consecutive distinct sorted means;
    the smallest optimal midpoint is returned.
    """
    features = _features_by_scene(examples, scenes, taxonomy, config)
    means = []
    labels = []
    for ex in examples:
        seq = _grounded(ex.tokens, scenes[ex.scene_id], taxonomy, config,
                        features[ex.scene_id])
        means.append(grounding.mean_grounding_score(seq) if seq
                     else float("-inf"))
        labels.append(ex.label)
    means = np.array(means)
    labels = np.array(labels)
    finite = np.unique(means[np.isfinite(means)])
    if len(finite) < 2:
        return float(finite[0] - 1.0) if len(finite) else 0.0
    midpoints = (finite[:-1] + finite[1:]) / 2.0
    best_tau = None
    best_acc = -1.0
    for tau in midpoints:
        acc = float(np.mean((means > tau) == labels))
        if acc > best_acc:
            best_acc = acc
            best_tau = float(tau)
    return best_tau


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

    features_by_scene = _features_by_scene(examples, scenes, taxonomy, config)
    cls_hits = base_cls_hits = 0
    det_hits = base_det_hits = 0
    cor_hits = base_cor_hits = 0
    foils = 0
    for ex in examples:
        scene = scenes[ex.scene_id]
        features = features_by_scene[ex.scene_id]
        got = classify(ex.tokens, scene, model, taxonomy, config,
                       features).relevant
        cls_hits += got == ex.label
        base = baseline_classify(ex.tokens, scene, tau, taxonomy, config,
                                 features)
        base_cls_hits += base == ex.label
        if ex.label:
            continue
        foils += 1
        det_hits += detect_foil_word(ex.tokens, scene, model, taxonomy,
                                     config, features) == ex.foil_index
        baseline = _baseline_scorer(scene, taxonomy, config, features)
        base_det_hits += _holdout_detect(ex.tokens, taxonomy,
                                         baseline) == ex.foil_index
        cor_hits += correct_foil_word(ex.tokens, ex.foil_index, scene, model,
                                      taxonomy, config,
                                      features=features) == ex.correction
        base_cor_hits += _substitution_correct(
            ex.tokens, ex.foil_index,
            taxonomy.flip_pool(ex.tokens[ex.foil_index]),
            baseline) == ex.correction

    n = len(examples)
    return FoilReport(
        classification=cls_hits / n,
        detection=det_hits / foils,
        correction=cor_hits / foils,
        baseline_classification=base_cls_hits / n,
        baseline_detection=base_det_hits / foils,
        baseline_correction=base_cor_hits / foils,
        tau=float(tau),
        num_examples=n,
        num_foils=foils,
    )
