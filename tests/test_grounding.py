"""Grounding tests against a brute-force oracle."""

import itertools
import math

import numpy as np
import pytest

from phrasecritic import (chunk_sentence, ground_all, ground_many,
                          ground_phrase)
from phrasecritic.grounding import (GEOMETRY_DIMS, embed_phrase, feature_dim,
                                    mean_grounding_score, scene_features)
from phrasecritic.textproc import apply_edits
from phrasecritic.worldsim import GrounderConfig

from conftest import assert_same_groundings

NOISELESS = GrounderConfig(sigma=0.0, feature_noise=0.0, seed=0)


def phrase(text, taxonomy):
    (p,) = chunk_sentence(text.split(), taxonomy)
    return p


def oracle_ground(p, scene, taxonomy, config, index):
    """Independent reimplementation: explicit loops, no vectorisation."""
    vec = embed_phrase(p, taxonomy)
    best, best_m = 0, None
    for i, region in enumerate(scene.regions):
        feats = frozen_region_features(region, taxonomy)
        m = sum(float(feats[d]) * float(vec[d])
                for d in range(taxonomy.vector_dim))
        if best_m is None or m > best_m:
            best, best_m = i, m
    noise = np.random.default_rng(
        [config.seed, 2, scene.scene_id]).standard_normal(index + 1)[-1]
    score = taxonomy.kappa[scene.regions[best].part] * min(best_m, 1.0) \
        + noise * config.sigma
    return best, score


def test_embedding_sets_exactly_the_phrase_bits(taxonomy):
    p = phrase("red and small beak", taxonomy)
    vec = embed_phrase(p, taxonomy)
    on = {i for i, v in enumerate(vec) if v == 1.0}
    want = {taxonomy.vector_index[t] for t in ("red", "small", "beak")}
    assert on == want


def test_alias_noun_embeds_as_body(taxonomy):
    vec = embed_phrase(phrase("red bird", taxonomy), taxonomy)
    assert vec[taxonomy.vector_index["body"]] == 1.0


def test_region_features_carry_geometry(taxonomy, tiny_dataset):
    scene = tiny_dataset.scenes[0]
    feats = scene_features(scene, taxonomy, NOISELESS)
    assert feats.shape == (len(scene.regions), feature_dim(taxonomy))
    for region, row in zip(scene.regions, feats):
        assert tuple(row[-GEOMETRY_DIMS:]) == region.box
        on = {i for i in range(taxonomy.vector_dim) if row[i] == 1.0}
        want = {taxonomy.vector_index[t] for t in region.attrs.values()}
        want.add(taxonomy.vector_index[region.part])
        assert on == want


def test_feature_noise_drops_active_bits_at_the_stated_rate(taxonomy,
                                                            tiny_dataset):
    scene = tiny_dataset.scenes[0]
    clean = scene_features(scene, taxonomy, NOISELESS)
    active = int(clean[:, :taxonomy.vector_dim].sum())
    dropped = 0
    trials = 250  # x 32 active bits per scene: 8000 draws
    for seed in range(trials):
        noisy = scene_features(scene, taxonomy, GrounderConfig(
            sigma=0.0, feature_noise=0.3, seed=seed))
        dropped += active - int(noisy[:, :taxonomy.vector_dim].sum())
        assert np.array_equal(noisy[:, taxonomy.vector_dim:],
                              clean[:, taxonomy.vector_dim:])
    assert abs(dropped / (trials * active) - 0.3) < 0.03


def test_grounding_matches_brute_force_oracle(tiny_dataset):
    """Region choice and score must equal an independent scalar recompute."""
    taxonomy = tiny_dataset.taxonomy
    config = tiny_dataset.grounder
    scenes = {s.scene_id: s for s in tiny_dataset.scenes}
    checked = 0
    for sentence in tiny_dataset.sentences[:120]:
        scene = scenes[sentence.scene_id]
        phrases = chunk_sentence(sentence.tokens, taxonomy)
        grounded = ground_all(phrases, scene, taxonomy, config)
        for i, (p, g) in enumerate(zip(phrases, grounded)):
            want_region, want_score = oracle_ground(p, scene, taxonomy,
                                                    config, i)
            assert g.region_index == want_region
            assert g.score == pytest.approx(want_score, abs=1e-12)
            assert g.part == scene.regions[want_region].part
            assert g.box == scene.regions[want_region].box
            checked += 1
    assert checked > 200


def test_true_phrase_grounds_to_its_part_region(tiny_dataset):
    taxonomy = tiny_dataset.taxonomy
    scene = tiny_dataset.scenes[0]
    region = scene.region_for("wing")
    p = phrase(f"{region.attrs['color']} wing", taxonomy)
    g = ground_phrase(p, scene, taxonomy, NOISELESS)
    assert g.part == "wing"


def test_score_is_kappa_when_noise_free(tiny_dataset):
    """With sigma 0 a matched phrase scores exactly kappa of its part."""
    taxonomy = tiny_dataset.taxonomy
    scene = tiny_dataset.scenes[0]
    region = scene.region_for("beak")
    p = phrase(f"{region.attrs['color']} beak", taxonomy)
    g = ground_phrase(p, scene, taxonomy, NOISELESS)
    assert g.score == pytest.approx(taxonomy.kappa["beak"], abs=1e-12)


def test_score_saturates_for_fully_matched_phrases(tiny_dataset):
    """Extra matching adjectives must not raise the raw score."""
    taxonomy = tiny_dataset.taxonomy
    scene = tiny_dataset.scenes[0]
    region = scene.region_for("head")
    one = phrase(f"{region.attrs['color']} head", taxonomy)
    two = phrase(f"{region.attrs['color']} and {region.attrs['size']} head",
                 taxonomy)
    s_one = ground_phrase(one, scene, taxonomy, NOISELESS).score
    s_two = ground_phrase(two, scene, taxonomy, NOISELESS).score
    assert s_one == pytest.approx(s_two, abs=1e-12)


def test_false_phrase_still_gets_a_confident_score(tiny_dataset):
    """Raw scores are truth-blind: a wrong attribute scores like a right one
    whenever the grounder lands on a region at all."""
    taxonomy = tiny_dataset.taxonomy
    scene = tiny_dataset.scenes[0]
    region = scene.region_for("belly")
    wrong = next(t for t in taxonomy.categories["color"]
                 if t not in set(region.attrs.values()))
    g = ground_phrase(phrase(f"{wrong} belly", taxonomy), scene, taxonomy,
                      NOISELESS)
    assert g.score == pytest.approx(taxonomy.kappa[g.part], abs=1e-12)


def test_noise_stream_is_per_scene_and_phrase_position(tiny_dataset):
    taxonomy = tiny_dataset.taxonomy
    config = GrounderConfig(sigma=0.5, feature_noise=0.0, seed=0)
    scene = tiny_dataset.scenes[0]
    p = phrase("red wing", taxonomy)
    g0 = ground_phrase(p, scene, taxonomy, config, phrase_index=0)
    g1 = ground_phrase(p, scene, taxonomy, config, phrase_index=1)
    assert g0.score != g1.score
    again = ground_phrase(p, scene, taxonomy, config, phrase_index=1)
    assert g1.score == again.score
    other = ground_phrase(p, tiny_dataset.scenes[1], taxonomy, config,
                          phrase_index=0)
    assert other.score != g0.score


def test_ground_all_equals_individual_grounding(tiny_dataset, scene_by_id):
    """ground_all, with one product and one noise draw per sentence, gives
    exactly what grounding each phrase on its own gives, with feature noise
    on."""
    taxonomy = tiny_dataset.taxonomy
    config = GrounderConfig(sigma=0.3, feature_noise=0.3, seed=4)
    checked = 0
    for sentence in tiny_dataset.sentences:
        scene = scene_by_id[sentence.scene_id]
        phrases = chunk_sentence(sentence.tokens, taxonomy)
        batch = ground_all(phrases, scene, taxonomy, config)
        assert len(batch) == len(phrases)
        for i, p in enumerate(phrases):
            single = ground_phrase(p, scene, taxonomy, config, phrase_index=i)
            assert batch[i].phrase is p
            assert_same_groundings([batch[i]], [single])
            assert batch[i].mention.base is None
            checked += 1
    assert checked > 400
    assert ground_all([], tiny_dataset.scenes[0], taxonomy, config) == []


def test_scene_features_shape(tiny_dataset):
    feats = scene_features(tiny_dataset.scenes[0], tiny_dataset.taxonomy,
                           NOISELESS)
    assert feats.shape == (len(tiny_dataset.scenes[0].regions),
                           feature_dim(tiny_dataset.taxonomy))


def test_mean_grounding_score_edge_cases(tiny_dataset):
    assert mean_grounding_score([]) == float("-inf")
    taxonomy = tiny_dataset.taxonomy
    scene = tiny_dataset.scenes[0]
    g = ground_all([phrase("red wing", taxonomy),
                    phrase("small beak", taxonomy)],
                   scene, taxonomy, NOISELESS)
    assert mean_grounding_score(g) == \
        pytest.approx((g[0].score + g[1].score) / 2.0)


class Scored:
    def __init__(self, score):
        self.score = score


def same_float(a, b):
    """Equal bit for bit up to NaN payloads: -0.0 is not 0.0."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


SPECIAL_SCORES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.25]


def test_mean_grounding_score_equals_np_mean():
    """The same float as np.mean at every length 1-9: every list of up to
    three special values, then random magnitudes over 1e-6..1e6 of either
    sign, every other list with specials mixed in."""
    rng = np.random.default_rng(0)
    cases = [list(c) for n in (1, 2, 3)
             for c in itertools.product(SPECIAL_SCORES, repeat=n)]
    for n in range(1, 10):
        for trial in range(2000):
            values = (rng.choice([-1.0, 1.0], n)
                      * 10.0 ** rng.uniform(-6, 6, n)).tolist()
            if trial % 2:
                for i in rng.choice(n, rng.integers(1, n + 1), replace=False):
                    values[i] = SPECIAL_SCORES[rng.integers(5)]
            cases.append(values)
    for values in cases:
        with np.errstate(invalid="ignore"):  # inf - inf in np.mean
            got = mean_grounding_score([Scored(v) for v in values])
            want = float(np.mean(values))
        assert type(got) is float
        assert same_float(got, want), (values, got, want)


def frozen_region_features(region, taxonomy, noise=0.0, rng=None):
    """One region's feature row, built bit by bit, one noise draw per
    active bit, as scene_features once stacked them: the reference for its
    one-array fill."""
    vec = np.zeros(taxonomy.vector_dim + GEOMETRY_DIMS)
    index = taxonomy.vector_index
    active = [index[tok] for tok in region.attrs.values() if tok in index]
    active.append(index[region.part])
    for dim in active:
        vec[dim] = 1.0
    if noise > 0.0:
        for dim in active:
            if rng.random() < noise:
                vec[dim] = 0.0
    vec[taxonomy.vector_dim:] = region.box
    return vec


@pytest.mark.parametrize("noise", [0.0, 0.3, 1.0])
def test_scene_features_equals_the_per_region_builder(tiny_dataset, noise,
                                                      monkeypatch):
    """Every scene's matrix equals the stacked frozen rows, and the
    generator scene_features seeds ends in the frozen builder's state."""
    taxonomy = tiny_dataset.taxonomy
    config = GrounderConfig(sigma=0.0, feature_noise=noise, seed=7)
    made, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: made.append(default_rng(seed))
                        or made[-1])
    for scene in tiny_dataset.scenes:
        rng = default_rng([config.seed, 1, scene.scene_id])
        want = np.stack([frozen_region_features(r, taxonomy, noise, rng)
                         for r in scene.regions])
        made.clear()
        got = scene_features(scene, taxonomy, config)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if noise == 0.0:
            assert made == []
            continue
        assert made[-1].bit_generator.state == rng.bit_generator.state


def test_grounding_does_not_depend_on_the_batch(tiny_dataset):
    """A scene's sentences, their hold-one-out variants and every
    same-category substitution, shuffled and split into batches of random
    sizes, each batch its own ground_many call, with both noises on: every
    sentence equals a fresh ground_all of it, and every grounded phrase
    carries the caller's own phrase object."""
    taxonomy = tiny_dataset.taxonomy
    config = GrounderConfig(sigma=0.3, feature_noise=0.3, seed=4)
    rng = np.random.default_rng(0)
    by_scene: dict[int, list] = {}
    for sentence in tiny_dataset.sentences:
        tokens = sentence.tokens
        phrases = chunk_sentence(tokens, taxonomy)
        variants = by_scene.setdefault(sentence.scene_id, [])
        variants.append(phrases)
        for i in range(len(tokens)):
            variants.append(chunk_sentence(tokens[:i] + tokens[i + 1:],
                                           taxonomy))
            for alt in taxonomy.flip_pool(tokens[i]):
                variants.append(apply_edits(tokens, phrases, [(i, alt)])[1])
    checked = 0
    for scene in tiny_dataset.scenes:
        variants = by_scene[scene.scene_id]
        want = [ground_all(p, scene, taxonomy, config) for p in variants]
        # and without ground_many: argmax over the noisy features, noise
        # drawn at the phrase's index of the scene's stream
        features = scene_features(scene, taxonomy, config)
        noise = np.random.default_rng(
            [config.seed, 2, scene.scene_id]).standard_normal(16)
        for phrases, grounded in zip(variants, want):
            for i, (p, g) in enumerate(zip(phrases, grounded)):
                m = features[:, :taxonomy.vector_dim] @ embed_phrase(
                    p, taxonomy)
                best = int(np.argmax(m))
                assert g.region_index == best
                assert g.score == taxonomy.kappa[g.part] * min(
                    float(m[best]), 1.0) + noise[i] * config.sigma
        order = rng.permutation(len(variants))
        got = {}
        while len(got) < len(order):
            picked = order[len(got):len(got) + int(rng.integers(1, 9))]
            for i, seq in zip(picked, ground_many(
                    [variants[i] for i in picked], scene, taxonomy, config)):
                got[i] = seq
        for i, phrases in enumerate(variants):
            assert_same_groundings(got[i], want[i])
            for g, p in zip(got[i], phrases):
                assert g.phrase is p
                assert g.mention.base is None
            checked += 1
    assert checked > 5000
