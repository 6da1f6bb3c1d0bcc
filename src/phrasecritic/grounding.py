"""Retrieval-style phrase grounding against scene regions.

A phrase and a region are both embedded as indicator vectors over attribute
tokens plus part nouns; the matched region is the argmax of their dot
product (first index on ties). Raw scores are deliberately incomparable
across parts: each part carries a fixed scale kappa sampled once per
taxonomy, plus Gaussian observation noise, so downstream consumers must
learn to normalise rather than trust score magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .textproc import AttributePhrase
from .worldsim import GrounderConfig, Scene, Taxonomy

GEOMETRY_DIMS = 4


@dataclass
class GroundedPhrase:
    """A phrase with its matched region, alignment evidence, and raw score.

    mention is the phrase's indicator vector; match is its elementwise
    product with the landed region's indicator bits, i.e. which mentioned
    tokens the region actually supports. Both are byproducts of the argmax
    the matcher computes anyway; score compresses the alignment to one
    noisy part-scaled number and is deliberately the weakest of the three.
    """

    phrase: AttributePhrase
    part: str
    region_index: int
    box: tuple[float, float, float, float]
    features: np.ndarray
    mention: np.ndarray
    match: np.ndarray
    score: float


def feature_dim(taxonomy: Taxonomy) -> int:
    return taxonomy.vector_dim + GEOMETRY_DIMS


def embed_phrase(phrase: AttributePhrase, taxonomy: Taxonomy) -> np.ndarray:
    """Indicator over the phrase's adjectives and canonical head-noun part.

    Out-of-lexicon adjectives and unknown nouns simply contribute nothing.
    """
    vec = np.zeros(taxonomy.vector_dim)
    index = taxonomy.vector_index
    for adj in phrase.adjectives:
        dim = index.get(adj)
        if dim is not None:
            vec[dim] = 1.0
    part = taxonomy.canonical_part(phrase.noun)
    if part is not None:
        vec[index[part]] = 1.0
    return vec


def scene_features(scene: Scene, taxonomy: Taxonomy,
                   config: GrounderConfig) -> np.ndarray:
    """Feature matrix of a scene's regions, filled as one array: row r is
    the indicator over region r's true attributes and part, then its
    geometry.

    With feature noise > 0, each active indicator bit is dropped
    independently with that probability (so the expected number of flipped
    bits is noise * active bits), emulating an unreliable detector. The
    draws come from a per-scene stream, region by region, active bits in
    order.
    """
    index = taxonomy.vector_index
    features = np.zeros((len(scene.regions), feature_dim(taxonomy)))
    rows, cols = [], []
    for row, region in enumerate(scene.regions):
        active = [index[tok] for tok in region.attrs.values() if tok in index]
        active.append(index[region.part])
        rows += [row] * len(active)
        cols += active
    features[rows, cols] = 1.0
    if config.feature_noise > 0.0:
        rng = np.random.default_rng([config.seed, 1, scene.scene_id])
        drop = rng.random(len(cols)) < config.feature_noise
        features[np.array(rows)[drop], np.array(cols)[drop]] = 0.0
    features[:, taxonomy.vector_dim:] = [r.box for r in scene.regions]
    return features


def _noise_stream(config: GrounderConfig, scene_id: int):
    # One stream per scene, indexed by phrase position, so grounding phrases
    # one at a time or all at once yields identical scores.
    return np.random.default_rng([config.seed, 2, scene_id])


def ground_phrase(phrase: AttributePhrase, scene: Scene, taxonomy: Taxonomy,
                  config: GrounderConfig, phrase_index: int = 0,
                  features: np.ndarray | None = None) -> GroundedPhrase:
    """Match a phrase to its best region and attach the raw score.

    The returned region maximises the indicator dot product m (ties go to
    the first region in the scene's proposal order). The raw score is
    kappa(part) * min(m, 1) plus Gaussian noise drawn per (scene, phrase
    index): the grounder reports its part-scaled confidence that it found
    a match at all, so score magnitudes say nothing about whether every
    word of the phrase holds. Downstream consumers that average raw scores
    inherit exactly this blindness.
    """
    if features is None:
        features = scene_features(scene, taxonomy, config)
    mention = embed_phrase(phrase, taxonomy)
    match = features[:, :taxonomy.vector_dim] @ mention
    best = int(np.argmax(match))
    region = scene.regions[best]
    noise = _noise_stream(config, scene.scene_id).standard_normal(
        phrase_index + 1)[-1] * config.sigma
    score = taxonomy.kappa[region.part] * min(float(match[best]), 1.0) \
        + float(noise)
    return GroundedPhrase(phrase, region.part, best, region.box,
                          features[best].copy(), mention,
                          features[best, :taxonomy.vector_dim] * mention,
                          score)


def ground_many(sentences, scene: Scene, taxonomy: Taxonomy,
                config: GrounderConfig) -> list[list[GroundedPhrase]]:
    """Ground each phrase list of sentences (a sequence) in order.

    A grounding depends only on the phrase's words and its index, since the
    noise is drawn per index, so each (adjectives, noun, phrase index) key
    is grounded once per call: all keys through one (keys x regions)
    product (sums of 0/1 indicators, hence exact however batched) and one
    noise draw up to the largest index. Every phrase equals ground_phrase on
    it at its index, and carries the caller's own phrase object.
    """
    keys = {(p.adjectives, p.noun, i): p for phrases in sentences
            for i, p in enumerate(phrases)}
    if not keys:
        return [[] for _ in sentences]
    features = scene_features(scene, taxonomy, config)
    dim = taxonomy.vector_dim
    mentions = [embed_phrase(p, taxonomy) for p in keys.values()]
    stacked = np.stack(mentions)
    matches = stacked @ features[:, :dim].T
    noise = (_noise_stream(config, scene.scene_id).standard_normal(
        max(i for _, _, i in keys) + 1) * config.sigma).tolist()
    bests = matches.argmax(axis=1)  # the first best region on ties
    tops = matches[np.arange(len(bests)), bests].tolist()
    rows = features[bests]
    grounded = {}
    for key, best, top, row, mention, overlap in zip(
            keys, bests.tolist(), tops, rows, mentions,
            rows[:, :dim] * stacked):
        region = scene.regions[best]
        score = taxonomy.kappa[region.part] * min(top, 1.0) + noise[key[2]]
        grounded[key] = (region.part, best, region.box, row, mention, overlap,
                         score)
    return [[GroundedPhrase(p, *grounded[p.adjectives, p.noun, i])
             for i, p in enumerate(phrases)] for phrases in sentences]


def ground_all(phrases, scene: Scene, taxonomy: Taxonomy,
               config: GrounderConfig) -> list[GroundedPhrase]:
    """Ground one sentence's phrases: ground_many of it alone."""
    return ground_many([phrases], scene, taxonomy, config)[0]


def mean_grounding_score(grounded) -> float:
    """Average raw score; the naive sentence ranker used by baselines.

    np.mean adds fewer than 8 values in order from 0.0 (pairwise summation
    starts at 8), so the loop returns its float without its per-call cost.
    """
    if not grounded:
        return float("-inf")
    if len(grounded) >= 8:
        return float(np.mean([g.score for g in grounded]))
    total = 0.0
    for g in grounded:
        total += g.score
    return total / len(grounded)
