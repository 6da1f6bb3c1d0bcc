"""World generation tests: distributions, determinism, serialisation."""

import numpy as np
import pytest

from phrasecritic import (ConfigurationError, Dataset, GenerationError,
                          Taxonomy, WorldConfig, chunk_sentence,
                          generate_dataset)
from phrasecritic.jsonio import dumps_canonical
from phrasecritic.negatives import contradicts_scene
from phrasecritic.worldsim import (ATTRIBUTE_CATEGORIES, PARTS,
                                   _CATEGORY_WEIGHTS, _FRAMES, _pick_category,
                                   _split_counts, build_taxonomy,
                                   compose_frame, ground_truth_sentence,
                                   make_foil_sentence, pick, pick_sorted,
                                   render_scene, sample_class_profiles)
from conftest import TINY as CFG, load_schema


def truth(scene):
    return {tok for region in scene.regions for tok in region.attrs.values()}


# -- taxonomy ----------------------------------------------------------------

def test_taxonomy_respects_requested_category_sizes(taxonomy):
    assert len(taxonomy.categories["color"]) == CFG.colors
    assert len(taxonomy.categories["size"]) == CFG.sizes
    assert len(taxonomy.categories["pattern"]) == CFG.patterns
    assert taxonomy.parts == PARTS


def test_taxonomy_kappa_within_configured_range(taxonomy):
    lo, hi = CFG.kappa_range
    for part, value in taxonomy.kappa.items():
        assert lo <= value <= hi
    assert len(set(taxonomy.kappa.values())) == len(PARTS)


def test_taxonomy_rejects_duplicate_tokens_across_categories():
    with pytest.raises(ConfigurationError, match="appears in two"):
        Taxonomy(parts=("beak",),
                 categories={"color": ("red",), "size": ("red",)},
                 kappa={"beak": 1.0}, aliases={})


@pytest.mark.parametrize("parts, expected", [
    (("beak", "head", "wing", "eye"), "taxonomy has no 'body' part"),
    (("beak", "head", "body"), "taxonomy has 2 parts besides 'body'; the "
                               "sentence frames mention up to 3"),
])
def test_taxonomy_needs_body_and_enough_frame_parts(taxonomy, parts,
                                                    expected):
    with pytest.raises(ConfigurationError, match=expected):
        Taxonomy(parts=parts, categories=taxonomy.categories,
                 kappa={part: 1.0 for part in parts}, aliases={})


def test_taxonomy_frame_parts_are_the_parts_besides_body(taxonomy):
    assert taxonomy.frame_parts == tuple(p for p in PARTS if p != "body")


@pytest.mark.parametrize("field,value", [("colors", 1), ("colors", 11),
                                         ("sizes", 7), ("patterns", 0)])
def test_taxonomy_rejects_bad_category_counts(field, value):
    config = WorldConfig(**{field: value})
    with pytest.raises(ConfigurationError):
        build_taxonomy(config, seed=0)


def test_flip_pool_stays_within_category(taxonomy):
    pool = taxonomy.flip_pool("red")
    assert "red" not in pool
    assert set(pool) == set(taxonomy.categories["color"]) - {"red"}
    parts_pool = taxonomy.flip_pool("bird")
    assert "body" not in parts_pool
    assert set(parts_pool) == set(PARTS) - {"body"}
    assert taxonomy.flip_pool("with") == ()


def test_alias_nouns_map_to_body(taxonomy):
    assert taxonomy.canonical_part("bird") == "body"
    assert taxonomy.canonical_part("feathers") == "body"
    assert taxonomy.canonical_part("wing") == "wing"
    assert taxonomy.canonical_part("sky") is None


# -- profiles ----------------------------------------------------------------

def test_profiles_cover_every_part_and_category(tiny_dataset):
    for profile in tiny_dataset.profiles:
        assert set(profile.attributes) == set(PARTS)
        for part in PARTS:
            assert set(profile.attributes[part]) == set(ATTRIBUTE_CATEGORIES)


def test_profiles_keep_min_pairwise_distance(tiny_dataset):
    profiles = tiny_dataset.profiles
    for i, a in enumerate(profiles):
        for b in profiles[i + 1:]:
            assert a.distance(b) >= CFG.min_profile_distance


def test_profile_sampling_is_deterministic(taxonomy):
    a = sample_class_profiles(taxonomy, 4, seed=5)
    b = sample_class_profiles(taxonomy, 4, seed=5)
    assert a == b


def test_impossible_min_distance_raises(taxonomy):
    with pytest.raises(GenerationError, match="distance"):
        sample_class_profiles(taxonomy, num_classes=50, seed=0,
                              min_distance=24, max_retries=20)


# -- scenes ------------------------------------------------------------------

def test_scene_has_one_region_per_part(tiny_dataset):
    for scene in tiny_dataset.scenes:
        assert sorted(r.part for r in scene.regions) == sorted(PARTS)


def test_region_order_varies_between_scenes(tiny_dataset):
    orders = {tuple(r.part for r in s.regions) for s in tiny_dataset.scenes}
    assert len(orders) > 1


def test_keypoints_fall_strictly_inside_their_box(tiny_dataset):
    for scene in tiny_dataset.scenes:
        for region in scene.regions:
            x, y, w, h = region.box
            kx, ky = scene.keypoints[region.part]
            assert x < kx < x + w
            assert y < ky < y + h


def test_render_noise_rate_matches_monte_carlo(taxonomy):
    """Deviations from the profile happen at rate noise * (1 - 1/pool)."""
    profile = sample_class_profiles(taxonomy, 1, seed=3)[0]
    noise = 0.4
    deviated = {cat: 0 for cat in ATTRIBUTE_CATEGORIES}
    trials = 600
    for i in range(trials):
        scene = render_scene(profile, taxonomy, noise, [99, i])
        for region in scene.regions:
            for cat, tok in region.attrs.items():
                deviated[cat] += tok != profile.attributes[region.part][cat]
    for cat in ATTRIBUTE_CATEGORIES:
        pool = len(taxonomy.categories[cat])
        expected = noise * (1.0 - 1.0 / pool)
        observed = deviated[cat] / (trials * len(PARTS))
        assert abs(observed - expected) < 0.02, (cat, observed, expected)


def test_render_zero_noise_copies_the_profile(taxonomy):
    profile = sample_class_profiles(taxonomy, 1, seed=3)[0]
    scene = render_scene(profile, taxonomy, 0.0, [7])
    for region in scene.regions:
        assert region.attrs == profile.attributes[region.part]


def test_render_is_deterministic(taxonomy):
    profile = sample_class_profiles(taxonomy, 1, seed=3)[0]
    a = render_scene(profile, taxonomy, 0.3, [11, 4], scene_id=4)
    b = render_scene(profile, taxonomy, 0.3, [11, 4], scene_id=4)
    assert a == b


# -- sentences ---------------------------------------------------------------

def test_ground_truth_sentences_only_state_scene_facts(tiny_dataset):
    taxonomy = tiny_dataset.taxonomy
    scenes = {s.scene_id: s for s in tiny_dataset.scenes}
    for sentence in tiny_dataset.sentences:
        if sentence.foil is not None:
            continue
        scene = scenes[sentence.scene_id]
        for phrase in chunk_sentence(sentence.tokens, taxonomy):
            part = taxonomy.canonical_part(phrase.noun)
            region = scene.region_for(part)
            for adj in phrase.adjectives:
                assert adj in region.attrs.values(), \
                    (sentence.tokens, phrase, region.attrs)


def test_foil_sentences_differ_in_exactly_one_token(tiny_dataset):
    taxonomy = tiny_dataset.taxonomy
    originals = {}
    for sentence in tiny_dataset.sentences:
        if sentence.foil is None:
            originals.setdefault(sentence.scene_id, []).append(sentence)
    found = 0
    for sentence in tiny_dataset.sentences:
        if sentence.foil is None:
            continue
        found += 1
        restored = list(sentence.tokens)
        restored[sentence.foil.index] = sentence.foil.original
        assert restored in [s.tokens for s in originals[sentence.scene_id]]
        foiled = sentence.tokens[sentence.foil.index]
        assert foiled != sentence.foil.original
        assert taxonomy.category_of(foiled) == \
            taxonomy.category_of(sentence.foil.original)
    assert found == len(tiny_dataset.scenes) * CFG.foils_per_scene


def test_foil_sentences_contradict_their_scene(tiny_dataset):
    """The foil guarantee: a foiled sentence is always false of its scene."""
    scenes = {s.scene_id: s for s in tiny_dataset.scenes}
    for sentence in tiny_dataset.sentences:
        if sentence.foil is None:
            continue
        assert contradicts_scene(sentence.tokens, scenes[sentence.scene_id],
                                 tiny_dataset.taxonomy)


def test_foil_prefers_attribute_tokens(tiny_dataset):
    taxonomy = tiny_dataset.taxonomy
    for sentence in tiny_dataset.sentences:
        if sentence.foil is None:
            continue
        assert taxonomy.category_of(sentence.foil.original) in \
            ATTRIBUTE_CATEGORIES


def test_sentence_without_content_tokens_cannot_be_foiled(taxonomy):
    from phrasecritic.worldsim import Sentence
    with pytest.raises(ValueError, match="content"):
        make_foil_sentence(Sentence(0, ["this", "is", "a"]), taxonomy, 0)


def test_ground_truth_sentence_deterministic(tiny_dataset):
    scene = tiny_dataset.scenes[0]
    a = ground_truth_sentence(scene, tiny_dataset.taxonomy, [42])
    b = ground_truth_sentence(scene, tiny_dataset.taxonomy, [42])
    assert a.tokens == b.tokens


def reference_ground_truth(scene, taxonomy, rng):
    """ground_truth_sentence spelled out with rng.choice frame, part and
    category picks and Scene.region_for lookups."""
    cats = list(_CATEGORY_WEIGHTS)
    p = np.array([_CATEGORY_WEIGHTS[c] for c in cats])
    parts = [part for part in taxonomy.parts if part != "body"]
    frame_id, uses_bird, n_parts = _FRAMES[rng.choice(len(_FRAMES))]
    bird_color = None
    if uses_bird:
        bird_color = scene.region_for("body").attrs["color"]
    picks = []
    for i in sorted(rng.choice(len(parts), size=n_parts, replace=False)):
        category = cats[int(rng.choice(len(cats), p=p / p.sum()))]
        picks.append((scene.region_for(parts[i]).attrs[category], parts[i]))
    return compose_frame(frame_id, bird_color, picks)[0]


def test_ground_truth_sentence_equals_the_reference_sampler(tiny_dataset):
    """Same tokens and the stream left in the same state, five sentences
    in a row from one stream, on every scene of the tiny world."""
    taxonomy = tiny_dataset.taxonomy
    for scene in tiny_dataset.scenes:
        ours = np.random.default_rng([3, scene.scene_id])
        reference = np.random.default_rng([3, scene.scene_id])
        for _ in range(5):
            assert ground_truth_sentence(scene, taxonomy, ours).tokens == \
                reference_ground_truth(scene, taxonomy, reference)
        assert ours.bit_generator.state == reference.bit_generator.state


def test_pick_replays_generator_choice(taxonomy):
    """pick picks what rng.choice(seq) picks and leaves the stream where
    choice leaves it, over the frames, every category's tokens and the
    negative miner's flip counts, with other draws in between."""
    seqs = [_FRAMES, *taxonomy.categories.values(), (1,), (1, 2)]
    ours, reference = np.random.default_rng(17), np.random.default_rng(17)
    picked, expected = [], []
    for i in range(60_000):
        seq = seqs[i % len(seqs)]
        picked.append(pick(seq, ours))
        chosen = reference.choice(seq)
        expected.append(tuple(chosen) if seq is _FRAMES else chosen)
        if i % 3 == 0:
            picked.append(ours.random())
            expected.append(reference.random())
    assert picked == expected
    assert set(picked) >= set(_FRAMES)
    assert ours.bit_generator.state == reference.bit_generator.state


def test_pick_category_replays_generator_choice():
    """_pick_category picks what rng.choice(p=...) picks and leaves the
    stream where choice leaves it, with other draws in between as the
    samplers make them; a numpy release that changes choice fails here."""
    cats = list(_CATEGORY_WEIGHTS)
    p = np.array([_CATEGORY_WEIGHTS[c] for c in cats])
    ours, reference = np.random.default_rng(11), np.random.default_rng(11)
    picked, expected = [], []
    for i in range(200_000):
        picked.append(_pick_category(ours))
        expected.append(cats[int(reference.choice(len(cats), p=p / p.sum()))])
        if i % 3 == 0:
            picked.append(ours.integers(7))
            expected.append(reference.integers(7))
        if i % 5 == 0:
            picked.append(ours.random())
            expected.append(reference.random())
    assert picked == expected
    assert set(picked[:1000]) >= set(cats)
    assert ours.bit_generator.state == reference.bit_generator.state


def test_pick_parts_replays_generator_choice():
    """pick_sorted picks what rng.choice(replace=False) picks, in pool
    order, and leaves the stream where choice leaves it: 200k picks of 1-3
    of the 7 parts a frame may mention, then every count of pools of 1-8
    (the negative miner picks from 1 or 2 phrases), with other draws in
    between as the samplers make them; a numpy release that changes
    choice fails here."""
    pool = [p for p in PARTS if p != "body"]
    cases = [(pool, i % 3 + 1) for i in range(200_000)]
    cases += [(list(range(n)), count) for n in range(1, 9)
              for count in range(n + 1) for _ in range(500)]
    ours, reference = np.random.default_rng(13), np.random.default_rng(13)
    picked, expected = [], []
    for i, (items, count) in enumerate(cases):
        picked.append(pick_sorted(items, ours, count))
        idx = reference.choice(len(items), size=count, replace=False)
        expected.append([items[j] for j in sorted(idx)])
        if i % 3 == 0:
            picked.append(ours.integers(7))
            expected.append(reference.integers(7))
        if i % 5 == 0:
            picked.append(ours.random())
            expected.append(reference.random())
    assert picked == expected
    assert {tuple(p) for p in picked[:3000] if isinstance(p, list)} >= \
        {(part,) for part in pool}
    assert ours.bit_generator.state == reference.bit_generator.state


# -- splits ------------------------------------------------------------------

@pytest.mark.parametrize("n,fractions,expected", [
    (10, (0.7, 0.1, 0.2), [7, 1, 2]),
    (150, (0.7, 0.1, 0.2), [105, 15, 30]),
    (5, (0.5, 0.25, 0.25), [3, 1, 1]),
    (1, (0.34, 0.33, 0.33), [1, 0, 0]),
])
def test_split_counts_use_largest_remainder(n, fractions, expected):
    assert _split_counts(n, fractions) == expected


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ConfigurationError, match="sum"):
        _split_counts(10, (0.5, 0.2, 0.2))


def test_every_class_appears_in_every_split(tiny_dataset):
    for split in ("train", "val", "test"):
        classes = {s.class_id for s in tiny_dataset.scenes_in_split(split)}
        assert classes == set(range(CFG.num_classes))


# -- dataset serialisation ---------------------------------------------------

def test_dataset_generation_is_deterministic():
    a = generate_dataset(CFG, seed=0)
    b = generate_dataset(CFG, seed=0)
    assert dumps_canonical(a.to_json()) == dumps_canonical(b.to_json())


def test_different_seeds_build_different_worlds():
    a = generate_dataset(CFG, seed=0)
    b = generate_dataset(CFG, seed=1)
    assert dumps_canonical(a.to_json()) != dumps_canonical(b.to_json())


def test_dataset_round_trips_through_json(tiny_dataset, tmp_path):
    path = tmp_path / "ds.json"
    tiny_dataset.save(path)
    loaded = Dataset.load(path)
    assert dumps_canonical(loaded.to_json()) == \
        dumps_canonical(tiny_dataset.to_json())
    loaded.save(tmp_path / "ds2.json")
    assert (tmp_path / "ds.json").read_bytes() == \
        (tmp_path / "ds2.json").read_bytes()


def test_dataset_rejects_unknown_format(tiny_dataset):
    payload = tiny_dataset.to_json()
    payload["format"] = 99
    with pytest.raises(ConfigurationError, match="format"):
        Dataset.from_json(payload)


def test_dataset_matches_schema(tiny_dataset):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(tiny_dataset.to_json(), load_schema("dataset"))


def test_scene_ids_are_stable_and_dense(tiny_dataset):
    ids = [s.scene_id for s in tiny_dataset.scenes]
    assert ids == list(range(CFG.num_classes * CFG.scenes_per_class))
