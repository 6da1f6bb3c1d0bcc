"""Hard-negative mining by within-category attribute flipping.

Negatives are built from a true sentence by flipping one token in one or
two of its phrases, so they stay grammatical, mention the same parts, and
differ from the positive in a small, targeted way. Pair construction
additionally drops any negative that happens to still be true of the
scene, so every training pair is genuinely rankable. Only positives are
chunked: a negative's phrases are edited from its positive's (apply_edits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby

import numpy as np

from . import grounding, textproc
from .metrics import phrase_correct
from .textproc import AttributePhrase
from .worldsim import Dataset, Scene, Taxonomy, pick, pick_sorted


@dataclass
class RankPair:
    """One positive/negative sentence pair for margin ranking."""

    scene_id: int
    positive: list[str]
    negative: list[str]
    flips: tuple[int, ...]
    split: str
    # both sides' phrases as mined; not written out
    phrases: tuple = field(default=(None, None), repr=False, compare=False)

    def to_json(self) -> dict:
        return {"scene_id": self.scene_id, "positive": list(self.positive),
                "negative": list(self.negative), "flips": list(self.flips)}


def _phrase_flips(phrase: AttributePhrase, taxonomy: Taxonomy):
    """All (sentence position, replacement) edits for one phrase."""
    flips = []
    for pos, adj in zip(phrase.adj_positions, phrase.adjectives):
        for alt in taxonomy.flip_pool(adj):
            flips.append((pos, alt))
    for alt in taxonomy.flip_pool(phrase.noun):
        flips.append((phrase.noun_position, alt))
    return flips


def _flip_counts(n_phrases: int):
    # Uniform over {1, 2}, capped so at least one phrase stays unflipped
    # whenever the sentence has more than one phrase.
    cap = max(1, n_phrases - 1)
    return [f for f in (1, 2) if f <= cap] or [1]


def _enumerate_space(phrases, taxonomy, n_phrases):
    """Every negative reachable under the flip policy, in a fixed order."""
    per_phrase = [_phrase_flips(p, taxonomy) for p in phrases]
    space = [(edit,) for flips in per_phrase for edit in flips]
    if 2 in _flip_counts(n_phrases):
        for i, j in combinations(range(n_phrases), 2):
            for edit_i in per_phrase[i]:
                for edit_j in per_phrase[j]:
                    space.append((edit_i, edit_j))
    return space


def _space_size(per_phrase, counts) -> int:
    """Number of distinct negatives in the flip space.

    Every edit replaces one token by a different one, and the edits of one
    negative touch distinct phrases, so no two edit sets of the space give
    the same negative and none gives the positive.
    """
    size = sum(len(flips) for flips in per_phrase)
    if 2 in counts:
        size += sum(len(a) * len(b) for a, b in combinations(per_phrase, 2))
    return size


def iter_negatives(tokens, phrases, taxonomy: Taxonomy, k: int = 10,
                   seed=0):
    """make_negatives' negatives in order, each drawn when it is asked for,
    so a caller that stops early skips the draws it would not use.

    phrases is the chunking of tokens. Each negative comes as (tokens,
    phrases, flipped positions): its phrases are edited from these
    (textproc.apply_edits), and its edits come in phrase order, so the
    positions ascend.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not phrases:
        raise ValueError("sentence has no attribute phrases to flip")
    rng = np.random.default_rng(seed)
    positive = tuple(tokens)
    per_phrase = [_phrase_flips(p, taxonomy) for p in phrases]
    counts = _flip_counts(len(phrases))
    flippable = [i for i in range(len(phrases)) if per_phrase[i]]
    wanted = min(k, _space_size(per_phrase, counts))

    seen = {positive}  # and every negative yielded so far
    budget = 60 * k
    while len(seen) - 1 < wanted and budget > 0:
        budget -= 1
        n_flip = min(pick(counts, rng), len(flippable))
        if n_flip == 0:
            break
        edits = [pick(per_phrase[c], rng)
                 for c in pick_sorted(flippable, rng, n_flip)]
        negative, edited = textproc.apply_edits(positive, phrases, edits)
        if negative not in seen:
            seen.add(negative)
            yield list(negative), edited, tuple(pos for pos, _ in edits)

    if len(seen) - 1 < wanted:
        # The sampling budget ran out first: enumerate the space for the rest.
        for edits in _enumerate_space(phrases, taxonomy, len(phrases)):
            negative, edited = textproc.apply_edits(positive, phrases, edits)
            if negative not in seen:
                seen.add(negative)
                yield list(negative), edited, tuple(pos for pos, _ in edits)
                if len(seen) - 1 == k:
                    break


def make_negatives(tokens, taxonomy: Taxonomy, k: int = 10,
                   seed=0) -> list[list[str]]:
    """Mine up to k distinct negatives for a sentence's token list.

    Each negative flips one token in each of one or two phrases (flip count
    uniform, at least one phrase left untouched when possible). Duplicates
    of the positive or of each other are rejected. The flip space holds no
    duplicates and never the positive, so sampling stops as soon as it has
    found min(k, |space|) negatives; only if its budget runs out first is
    the space enumerated for the rest. The result always has exactly
    min(k, |space|) entries.
    """
    phrases = textproc.chunk_sentence(list(tokens), taxonomy)
    return [negative for negative, _, _
            in iter_negatives(tokens, phrases, taxonomy, k, seed)]


def contradicts_scene(tokens, scene: Scene, taxonomy: Taxonomy,
                      phrases=None) -> bool:
    """True if any phrase (given, or else chunked from tokens) mentions an
    attribute the scene does not have."""
    if phrases is None:
        phrases = textproc.chunk_sentence(tokens, taxonomy)
    return not all(phrase_correct(p, scene, taxonomy) for p in phrases)


def build_rank_pairs(dataset: Dataset, k: int = 10, seed: int = 0,
                     sentences_per_scene: int = 1) -> list[RankPair]:
    """Build (positive, negative) pairs for every scene's true sentences.

    Negatives that fail to contradict the scene (a noun flip can land on a
    part that really has the attribute) are discarded; of up to 3k mined
    candidates the first k contradicting ones are kept, mining no further.
    """
    gt_by_scene: dict[int, list] = {}
    for sentence in dataset.sentences:
        if sentence.foil is None:
            gt_by_scene.setdefault(sentence.scene_id, []).append(sentence)

    pairs = []
    for scene in dataset.scenes:
        for sentence in gt_by_scene.get(scene.scene_id, [])[:sentences_per_scene]:
            rng = np.random.default_rng([seed, 5, scene.scene_id])
            phrases = textproc.chunk_sentence(sentence.tokens,
                                              dataset.taxonomy)
            kept = 0
            for negative, negative_phrases, flips in iter_negatives(
                    sentence.tokens, phrases, dataset.taxonomy, k=3 * k,
                    seed=rng):
                if not contradicts_scene(negative, scene, dataset.taxonomy,
                                         negative_phrases):
                    continue
                pairs.append(RankPair(scene.scene_id, list(sentence.tokens),
                                      negative, flips, scene.split,
                                      (phrases, negative_phrases)))
                kept += 1
                if kept == k:
                    break
    return pairs


def pairs_to_json(pairs) -> dict:
    return {"format": 1, "pairs": [p.to_json() for p in pairs]}


def ground_rank_pairs(dataset: Dataset, pairs):
    """Ground both sides of each pair in its own scene.

    Returns a dict keyed by split whose values are lists of
    (positive grounded sequence, negative grounded sequence) ready for
    ranker training. Each run of pairs from one scene grounds its distinct
    sentences from their mined phrases in one ground_many call, so pairs
    with the same positive share one grounded list.
    """
    scenes = {s.scene_id: s for s in dataset.scenes}
    grouped: dict[str, list] = {}
    for scene_id, run in groupby(pairs, lambda pair: pair.scene_id):
        run = list(run)
        sentences = {tuple(tokens): phrases for pair in run for tokens, phrases
                     in zip((pair.positive, pair.negative), pair.phrases)}
        grounded = dict(zip(sentences, grounding.ground_many(
            sentences.values(), scenes[scene_id], dataset.taxonomy,
            dataset.grounder)))
        for pair in run:
            grouped.setdefault(pair.split, []).append(
                (grounded[tuple(pair.positive)],
                 grounded[tuple(pair.negative)]))
    return grouped
