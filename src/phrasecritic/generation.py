"""Candidate sentence generation and a smoothed bigram fluency model.

The generator is class conditioned: it draws sentences with
worldsim.draw_sentence, and each mentioned attribute is taken from the
class profile (the class prior) instead of the scene's true attribute with
probability error_rate. Fluency is the total bigram log-probability of the
sentence under a model fit per class, in log base 10; base 10 puts typical
well-formed sentences in the single digits so a fixed gate threshold is
meaningful.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import textproc, worldsim
from .worldsim import ClassProfile, Dataset, Scene, Taxonomy

START = "<s>"
END = "</s>"
UNK = "<unk>"

_LOG10 = math.log(10.0)


@dataclass
class BigramLM:
    """Add-alpha smoothed bigram model over a closed vocabulary.

    Contexts are START plus every vocabulary token (plus UNK); targets are
    every vocabulary token plus END and UNK. logp[i, j] is log10 of
    P(target j | context i); each row sums to one in probability space.
    """

    vocab: tuple[str, ...]
    logp: np.ndarray = field(repr=False)
    contexts: dict[str, int] = field(repr=False)
    targets: dict[str, int] = field(repr=False)
    # logp as Python float rows, so a lookup is two list indexings.
    rows: list[list[float]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rows = self.logp.tolist()

    def logprob(self, prev: str, nxt: str) -> float:
        i = self.contexts.get(prev, self.contexts[UNK])
        j = self.targets.get(nxt, self.targets[UNK])
        return self.rows[i][j]


def fit_language_model(corpus, alpha: float = 0.1) -> BigramLM:
    """Fit a bigram model on an iterable of token lists."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    vocab = sorted({tok for tokens in corpus for tok in tokens})
    contexts = {tok: i for i, tok in enumerate([START] + vocab + [UNK])}
    targets = {tok: i for i, tok in enumerate(vocab + [END, UNK])}
    counts = np.zeros((len(contexts), len(targets)))
    for tokens in corpus:
        prev = START
        for tok in tokens:
            counts[contexts[prev], targets[tok]] += 1.0
            prev = tok
        counts[contexts[prev], targets[END]] += 1.0
    smoothed = counts + alpha
    probs = smoothed / smoothed.sum(axis=1, keepdims=True)
    return BigramLM(vocab=tuple(vocab), logp=np.log10(probs),
                    contexts=contexts, targets=targets)


def fluency(tokens, lm: BigramLM) -> float:
    """Sentence log10-probability, including the end-marker transition.

    An empty sentence scores log P(END | START). Always <= 0.
    """
    rows, contexts, targets = lm.rows, lm.contexts, lm.targets
    unk_context, unk_target = contexts[UNK], targets[UNK]
    score = 0.0
    row = rows[contexts[START]]
    for tok in tokens:
        score += row[targets.get(tok, unk_target)]
        row = rows[contexts.get(tok, unk_context)]
    return score + row[targets[END]]


@dataclass
class Candidate:
    """A generated explanation sentence with its fluency and phrase list."""

    tokens: list[str]
    fluency: float
    phrases: list[textproc.AttributePhrase]
    class_id: int


def sample_candidates(scene: Scene, profile: ClassProfile, taxonomy: Taxonomy,
                      lm: BigramLM, n: int = 100, error_rate: float = 0.3,
                      seed=0) -> list[Candidate]:
    """Sample n candidate sentences for a scene.

    Attributes default to the scene's true region attribute; with
    probability error_rate each mention is drawn from the class profile
    instead, yielding class-plausible but image-irrelevant mentions (when
    render noise made the scene deviate from its profile). Each candidate's
    phrases are the ones its frame placed, which are what chunk_sentence
    finds in its tokens when every attribute is a taxonomy token (as
    Dataset.from_json ensures).
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate {error_rate} outside [0, 1]")
    rng = np.random.default_rng(seed)
    attrs = {}  # the first region of a part wins, as in Scene.region_for
    for region in scene.regions:
        attrs.setdefault(region.part, region.attrs)

    def attribute(part, category):  # the class prior with p = error_rate
        source = profile.attributes if rng.random() < error_rate else attrs
        return source[part][category]

    candidates = []
    for _ in range(n):
        tokens, slots = worldsim.draw_sentence(rng, taxonomy, attribute)
        candidates.append(Candidate(
            tokens=tokens,
            fluency=fluency(tokens, lm),
            phrases=placed_phrases(tokens, slots),
            class_id=profile.class_id,
        ))
    return candidates


def placed_phrases(tokens, slots):
    """The one-adjective phrases at compose_frame's (adjective, noun)
    positions."""
    return [_placed_phrase(tokens[a], tokens[p], a, p) for a, p in slots]


@functools.cache
def _placed_phrase(adjective, noun, a, p):
    """One phrase per (adjective, noun, positions): the phrase is frozen, so
    every candidate that places it shares one instance."""
    return textproc.AttributePhrase(
        adjectives=(adjective,), noun=noun, span=(min(a, p), max(a, p) + 1),
        adj_positions=(a,), noun_position=p)


def fit_class_lms(dataset: Dataset, alpha: float = 0.1,
                  split: str = "train") -> dict[int, BigramLM]:
    """Fit one bigram model per class on that class's true split sentences."""
    scenes = {s.scene_id: s for s in dataset.scenes}
    corpora: dict[int, list[list[str]]] = {
        p.class_id: [] for p in dataset.profiles}
    for sentence in dataset.sentences:
        scene = scenes[sentence.scene_id]
        if sentence.foil is None and scene.split == split:
            corpora[scene.class_id].append(sentence.tokens)
    return {class_id: fit_language_model(corpus, alpha)
            for class_id, corpus in corpora.items()}
