"""Hard-negative mining: flip policy, contradiction filter, pair building."""

from dataclasses import replace

import numpy as np
import pytest

from phrasecritic import grounding, textproc
from phrasecritic.negatives import (RankPair, _enumerate_space, _flip_counts,
                                    _phrase_flips, _space_size,
                                    build_rank_pairs, contradicts_scene,
                                    ground_rank_pairs, make_negatives,
                                    pairs_to_json)
from phrasecritic.worldsim import (GrounderConfig, Region, Scene,
                                   generate_dataset)

from conftest import assert_same_groundings, load_schema, record_grounders


def first_gt_sentence(dataset, n_phrases=None):
    splits = {s.scene_id: s.split for s in dataset.scenes}
    for sentence in dataset.sentences:
        if sentence.foil is not None:
            continue
        phrases = textproc.chunk_sentence(sentence.tokens, dataset.taxonomy)
        if n_phrases is None or len(phrases) == n_phrases:
            return sentence, splits[sentence.scene_id]
    raise AssertionError(f"no ground-truth sentence with {n_phrases} phrases")


def _apply_edits(tokens, edits):
    return textproc.apply_edits(tokens, (), edits)[0]


# -- make_negatives -----------------------------------------------------------

def enumerate_single_flips(tokens, taxonomy):
    """Oracle: all single-token within-category edits of any phrase."""
    out = set()
    for phrase in textproc.chunk_sentence(list(tokens), taxonomy):
        slots = list(zip(phrase.adj_positions, phrase.adjectives))
        slots.append((phrase.noun_position, phrase.noun))
        for pos, tok in slots:
            for alt in taxonomy.flip_pool(tok):
                edited = list(tokens)
                edited[pos] = alt
                out.add(tuple(edited))
    return out


def test_make_negatives_exhausts_single_phrase_space(taxonomy):
    tokens = ["this", "bird", "has", "a", "red", "wing"]
    assert len(textproc.chunk_sentence(tokens, taxonomy)) == 1
    space = enumerate_single_flips(tokens, taxonomy)
    got = make_negatives(tokens, taxonomy, k=10 * len(space), seed=0)
    assert len(got) == len(space)
    assert {tuple(n) for n in got} == space


def test_make_negatives_distinct_and_never_positive(tiny_dataset, taxonomy):
    sentence, _ = first_gt_sentence(tiny_dataset)
    got = make_negatives(sentence.tokens, taxonomy, k=40, seed=3)
    as_tuples = [tuple(n) for n in got]
    assert len(set(as_tuples)) == len(as_tuples)
    assert tuple(sentence.tokens) not in as_tuples


def test_make_negatives_flip_shape(tiny_dataset, taxonomy):
    """Each negative touches one or two phrases, one token per phrase,
    always within category, and leaves at least one phrase untouched."""
    sentence, _ = first_gt_sentence(tiny_dataset, n_phrases=3)
    phrases = textproc.chunk_sentence(sentence.tokens, taxonomy)
    position_to_phrase = {}
    for pi, phrase in enumerate(phrases):
        for pos in phrase.adj_positions + (phrase.noun_position,):
            position_to_phrase[pos] = pi
    for negative in make_negatives(sentence.tokens, taxonomy, k=60, seed=1):
        diff = [i for i, (a, b) in enumerate(zip(sentence.tokens, negative))
                if a != b]
        assert 1 <= len(diff) <= 2
        touched = {position_to_phrase[i] for i in diff}
        assert len(touched) == len(diff)   # never two flips in one phrase
        assert len(touched) < len(phrases)  # one phrase always untouched
        for i in diff:
            assert negative[i] in taxonomy.flip_pool(sentence.tokens[i])


def test_make_negatives_two_phrase_sentences_use_single_flips(tiny_dataset,
                                                              taxonomy):
    sentence, _ = first_gt_sentence(tiny_dataset, n_phrases=2)
    for negative in make_negatives(sentence.tokens, taxonomy, k=60, seed=2):
        diff = sum(a != b for a, b in zip(sentence.tokens, negative))
        assert diff == 1


def test_make_negatives_deterministic(tiny_dataset, taxonomy):
    sentence, _ = first_gt_sentence(tiny_dataset)
    a = make_negatives(sentence.tokens, taxonomy, k=12, seed=9)
    b = make_negatives(sentence.tokens, taxonomy, k=12, seed=9)
    assert a == b


def reference_make_negatives(tokens, taxonomy, k, seed):
    """The sampler without the stop at the flip space's size: it draws
    until it has k negatives or its budget of 60k draws is spent, then
    enumerates the space for the rest."""
    rng = np.random.default_rng(seed)
    phrases = textproc.chunk_sentence(list(tokens), taxonomy)
    positive = tuple(tokens)
    per_phrase = [_phrase_flips(p, taxonomy) for p in phrases]
    counts = _flip_counts(len(phrases))
    seen = {positive}
    negatives = []
    budget = 60 * k
    while len(negatives) < k and budget > 0:
        budget -= 1
        n_flip = counts[int(rng.integers(len(counts)))]
        flippable = [i for i in range(len(phrases)) if per_phrase[i]]
        if len(flippable) < n_flip:
            n_flip = len(flippable)
        if n_flip == 0:
            break
        chosen = rng.choice(len(flippable), size=n_flip, replace=False)
        edits = []
        for c in sorted(int(c) for c in chosen):
            flips = per_phrase[flippable[c]]
            edits.append(flips[int(rng.integers(len(flips)))])
        negative = _apply_edits(positive, edits)
        if negative not in seen:
            seen.add(negative)
            negatives.append(list(negative))
    if len(negatives) < k:
        for edits in _enumerate_space(phrases, taxonomy, len(phrases)):
            negative = _apply_edits(positive, edits)
            if negative not in seen:
                seen.add(negative)
                negatives.append(list(negative))
                if len(negatives) == k:
                    break
    return negatives


def first_gt_sentences(dataset):
    """The first ground-truth sentence of every scene."""
    firsts = {}
    for sentence in dataset.sentences:
        if sentence.foil is None:
            firsts.setdefault(sentence.scene_id, sentence)
    return list(firsts.values())


def test_space_size_counts_the_distinct_negatives(tiny_dataset, taxonomy):
    for sentence in first_gt_sentences(tiny_dataset):
        phrases = textproc.chunk_sentence(sentence.tokens, taxonomy)
        per_phrase = [_phrase_flips(p, taxonomy) for p in phrases]
        space = _enumerate_space(phrases, taxonomy, len(phrases))
        distinct = {_apply_edits(sentence.tokens, e) for e in space}
        assert tuple(sentence.tokens) not in distinct
        assert _space_size(per_phrase, _flip_counts(len(phrases))) == \
            len(distinct)


def test_make_negatives_stop_matches_reference_sampler(tiny_dataset,
                                                       taxonomy):
    """Stopping once the flip space is used up returns exactly what the
    full-budget sampler returns, for k below, at and above the space, on
    two sentences of each phrase count (the reference spends its whole
    budget of 60k draws at k above the space)."""
    by_count = {}
    for sentence in first_gt_sentences(tiny_dataset):
        phrases = textproc.chunk_sentence(sentence.tokens, taxonomy)
        by_count.setdefault(len(phrases), []).append((sentence, phrases))
    phrase_counts = set(by_count)
    for sentence, phrases in (s for group in by_count.values()
                              for s in group[:2]):
        size = _space_size([_phrase_flips(p, taxonomy) for p in phrases],
                           _flip_counts(len(phrases)))
        for k in (size // 2, size, size + 1):
            seed = [0, 5, sentence.scene_id]
            got = make_negatives(sentence.tokens, taxonomy, k=k, seed=seed)
            assert got == reference_make_negatives(sentence.tokens, taxonomy,
                                                   k, seed)
            assert len(got) == min(k, size)
    assert phrase_counts == {2, 3, 4}


def test_make_negatives_bad_inputs(taxonomy):
    with pytest.raises(ValueError, match="positive"):
        make_negatives(["this", "bird", "has", "a", "red", "wing"],
                       taxonomy, k=0)
    with pytest.raises(ValueError, match="phrases"):
        make_negatives(["this", "is", "a"], taxonomy, k=5)


# -- contradicts_scene --------------------------------------------------------

def test_ground_truth_sentences_never_contradict(tiny_dataset, scene_by_id):
    checked = 0
    for sentence in tiny_dataset.sentences:
        if sentence.foil is not None:
            continue
        assert not contradicts_scene(sentence.tokens,
                                     scene_by_id[sentence.scene_id],
                                     tiny_dataset.taxonomy)
        checked += 1
    assert checked > 50


def test_wrong_attribute_contradicts(tiny_dataset, scene_by_id, taxonomy):
    scene = tiny_dataset.scenes[0]
    region = scene.regions[0]
    wrong = next(c for c in taxonomy.categories["color"]
                 if c != region.attrs["color"])
    tokens = ["this", "bird", "has", "a", wrong, region.part]
    assert contradicts_scene(tokens, scene, taxonomy)
    right = ["this", "bird", "has", "a", region.attrs["color"], region.part]
    assert not contradicts_scene(right, scene, taxonomy)
    # a sentence without phrases claims nothing
    assert not contradicts_scene(["this", "is"], scene, taxonomy)


def test_missing_region_contradicts(tiny_dataset, taxonomy):
    base = tiny_dataset.scenes[0]
    pruned = Scene(base.scene_id, base.class_id,
                   [r for r in base.regions if r.part != "wing"],
                   base.keypoints, base.split)
    wing = base.region_for("wing")
    tokens = ["this", "bird", "has", "a", wing.attrs["color"], "wing"]
    assert contradicts_scene(tokens, pruned, taxonomy)


# -- build_rank_pairs ----------------------------------------------------------

def test_build_rank_pairs_properties(tiny_dataset, scene_by_id):
    pairs = build_rank_pairs(tiny_dataset, k=4)
    assert pairs
    gt = {(s.scene_id, tuple(s.tokens))
          for s in tiny_dataset.sentences if s.foil is None}
    per_scene = {}
    for pair in pairs:
        scene = scene_by_id[pair.scene_id]
        assert (pair.scene_id, tuple(pair.positive)) in gt
        assert pair.split == scene.split
        assert contradicts_scene(pair.negative, scene, tiny_dataset.taxonomy)
        diff = tuple(i for i, (a, b)
                     in enumerate(zip(pair.positive, pair.negative))
                     if a != b)
        assert diff == pair.flips
        assert 1 <= len(diff) <= 2
        per_scene[pair.scene_id] = per_scene.get(pair.scene_id, 0) + 1
    assert max(per_scene.values()) <= 4
    assert set(per_scene) == {s.scene_id for s in tiny_dataset.scenes}


def eager_rank_pairs(dataset, k, seed):
    """build_rank_pairs as it was before mining became lazy: the reference
    sampler mines all 3k negatives for each scene's first true sentence,
    then the first k that contradict the scene (phrases chunked from the
    negative) are kept."""
    firsts = {s.scene_id: s for s in first_gt_sentences(dataset)}
    pairs = []
    for scene in dataset.scenes:
        positive = firsts[scene.scene_id].tokens
        mined = reference_make_negatives(positive, dataset.taxonomy, 3 * k,
                                         [seed, 5, scene.scene_id])
        kept = [n for n in mined
                if contradicts_scene(n, scene, dataset.taxonomy)][:k]
        for negative in kept:
            flips = tuple(i for i, (a, b) in enumerate(zip(positive, negative))
                          if a != b)
            pairs.append(RankPair(scene.scene_id, list(positive), negative,
                                  flips, scene.split))
    return pairs


@pytest.mark.parametrize("world_seed", range(10))
def test_build_rank_pairs_matches_eager_mining(tiny_config, world_seed):
    """Stopping at the k-th kept negative changes no pair, also where the
    flip space holds fewer than 3k negatives."""
    dataset = generate_dataset(tiny_config, seed=world_seed)
    small_spaces = 0
    for k in (1, 3, 10):
        assert build_rank_pairs(dataset, k=k, seed=world_seed) == \
            eager_rank_pairs(dataset, k, world_seed)
        for sentence in first_gt_sentences(dataset):
            phrases = textproc.chunk_sentence(sentence.tokens,
                                              dataset.taxonomy)
            small_spaces += _space_size(
                [_phrase_flips(p, dataset.taxonomy) for p in phrases],
                _flip_counts(len(phrases))) < 3 * k
    assert small_spaces > 0


def test_build_rank_pairs_deterministic(tiny_dataset):
    assert build_rank_pairs(tiny_dataset, k=3) == \
        build_rank_pairs(tiny_dataset, k=3)


def test_ground_rank_pairs_matches_ground_all(tiny_dataset, scene_by_id):
    """Both sides equal chunk_sentence + ground_all, with both noises on,
    and pairs with the same positive share one grounded list."""
    taxonomy = tiny_dataset.taxonomy
    noisy = replace(tiny_dataset, grounder=GrounderConfig(
        sigma=0.3, feature_noise=0.3, seed=4))
    pairs = build_rank_pairs(tiny_dataset, k=4)
    grouped = ground_rank_pairs(noisy, pairs)
    assert sorted(grouped) == sorted({p.split for p in pairs})
    by_positive: dict[tuple, list] = {}
    for split, seqs in grouped.items():
        split_pairs = [p for p in pairs if p.split == split]
        assert len(seqs) == len(split_pairs)
        for pair, (pos, neg) in zip(split_pairs, seqs):
            scene = scene_by_id[pair.scene_id]
            for tokens, got in ((pair.positive, pos), (pair.negative, neg)):
                phrases = textproc.chunk_sentence(tokens, taxonomy)
                assert_same_groundings(got, grounding.ground_all(
                    phrases, scene, taxonomy, noisy.grounder))
            key = (pair.scene_id, tuple(pair.positive))
            by_positive.setdefault(key, []).append(pos)
    shared = [seqs for seqs in by_positive.values() if len(seqs) > 1]
    assert shared
    for seqs in shared:
        assert all(seq is seqs[0] for seq in seqs)


def test_ground_rank_pairs_grounds_each_scene_in_one_call(tiny_dataset,
                                                          monkeypatch):
    """One grounding.ground_many call per scene with pairs, in pair order,
    over that scene's distinct pair sentences (several positives per
    scene)."""
    pairs = build_rank_pairs(tiny_dataset, k=4, sentences_per_scene=2)
    calls = []
    ground_many = grounding.ground_many

    def recording(sentences, scene, taxonomy, config):
        calls.append((scene.scene_id, len(sentences)))
        return ground_many(sentences, scene, taxonomy, config)

    monkeypatch.setattr(grounding, "ground_many", recording)
    ground_rank_pairs(tiny_dataset, pairs)
    scene_ids = list(dict.fromkeys(p.scene_id for p in pairs))
    assert [scene_id for scene_id, _ in calls] == scene_ids
    assert [n for _, n in calls] == [
        len({tuple(tokens) for p in pairs if p.scene_id == scene_id
             for tokens in (p.positive, p.negative)})
        for scene_id in scene_ids]


def test_ground_rank_pairs_builds_one_grounder_per_scene(tiny_dataset,
                                                         monkeypatch):
    """Each scene with pairs is grounded once, in pair order."""
    pairs = build_rank_pairs(tiny_dataset, k=4, sentences_per_scene=2)
    built = record_grounders(monkeypatch)
    ground_rank_pairs(tiny_dataset, pairs)
    assert built == list(dict.fromkeys(p.scene_id for p in pairs))


def test_pairs_to_json_matches_schema(tiny_dataset):
    jsonschema = pytest.importorskip("jsonschema")
    payload = pairs_to_json(build_rank_pairs(tiny_dataset, k=2))
    assert payload["format"] == 1
    jsonschema.validate(payload, load_schema("pairs"))


def test_rank_pair_round_trip_fields():
    pair = RankPair(3, ["a", "red", "wing"], ["a", "blue", "wing"], (1,),
                    "train")
    out = pair.to_json()
    assert out == {"scene_id": 3, "positive": ["a", "red", "wing"],
                   "negative": ["a", "blue", "wing"], "flips": [1]}
