"""Keypoint metrics, phrase/sentence correctness, method comparison."""

import math

import numpy as np
import pytest

from phrasecritic import generation, grounding, textproc
from phrasecritic.critic import CriticHyper, CriticModel
from phrasecritic.metrics import (METHODS, box_center, cnp_cs,
                                  compare_methods, keypoint_accuracy,
                                  keypoint_distance, keypoint_sums,
                                  phrase_correct, point_in_box)
from phrasecritic.worldsim import Region, Scene

from conftest import load_schema


def make_phrase(adjectives, noun):
    return textproc.AttributePhrase(tuple(adjectives), noun,
                                    (0, len(adjectives) + 1),
                                    tuple(range(len(adjectives))),
                                    len(adjectives))


def make_grounded(phrase, box):
    return grounding.GroundedPhrase(phrase=phrase, part=phrase.noun,
                                    region_index=0, box=box,
                                    features=np.zeros(2),
                                    mention=np.zeros(2), match=np.zeros(2),
                                    score=1.0)


# -- geometry -------------------------------------------------------------------

def test_point_in_box_boundaries():
    box = (0.2, 0.3, 0.4, 0.2)
    assert point_in_box((0.2, 0.3), box)          # corner counts
    assert point_in_box((0.6, 0.5), box)          # far corner counts
    assert point_in_box((0.4, 0.4), box)
    assert not point_in_box((0.19999, 0.4), box)
    assert not point_in_box((0.4, 0.50001), box)


def test_box_center():
    assert box_center((0.2, 0.3, 0.4, 0.2)) == pytest.approx((0.4, 0.4))


# -- keypoint metrics ----------------------------------------------------------

def hand_scene():
    regions = [Region("wing", (0.0, 0.0, 0.5, 0.5), {"color": "red"}),
               Region("head", (0.5, 0.5, 0.4, 0.4), {"color": "blue"})]
    keypoints = {"wing": (0.25, 0.25), "head": (0.95, 0.95)}
    return Scene(0, 0, regions, keypoints, "test")


def test_keypoint_hits_and_exclusions(taxonomy):
    scene = hand_scene()
    grounded = [
        make_grounded(make_phrase(["red"], "wing"), (0.0, 0.0, 0.5, 0.5)),
        make_grounded(make_phrase(["red"], "wing"), (0.6, 0.6, 0.1, 0.1)),
        make_grounded(make_phrase(["blue"], "head"), (0.9, 0.9, 0.1, 0.1)),
    ]
    sums, excluded = keypoint_sums(grounded, scene, taxonomy)
    far = math.hypot(0.65 - 0.25, 0.65 - 0.25)
    assert sums == {"wing": [1, 2, pytest.approx(far)],
                    "head": [1, 1, pytest.approx(0.0)]}
    assert excluded == 0

    acc, excluded = keypoint_accuracy(grounded, scene, taxonomy)
    assert acc == {"wing": 0.5, "head": 1.0}
    assert excluded == 0


def test_keypoint_unmappable_nouns_are_excluded(taxonomy):
    scene = hand_scene()   # has no keypoint for the body part
    grounded = [
        make_grounded(make_phrase(["red"], "bird"), (0.0, 0.0, 1.0, 1.0)),
        make_grounded(make_phrase(["red"], "wing"), (0.0, 0.0, 0.5, 0.5)),
    ]
    sums, excluded = keypoint_sums(grounded, scene, taxonomy)
    assert excluded == 1   # "bird" maps to body, which has no keypoint here
    assert sums == {"wing": [1, 1, 0.0]}


def test_keypoint_distance_means(taxonomy):
    scene = hand_scene()
    grounded = [
        make_grounded(make_phrase(["red"], "wing"), (0.0, 0.0, 0.5, 0.5)),
        make_grounded(make_phrase(["red"], "wing"), (0.25, 0.25, 0.5, 0.5)),
    ]
    dist = keypoint_distance(grounded, scene, taxonomy)
    d1 = 0.0
    d2 = math.hypot(0.5 - 0.25, 0.5 - 0.25)
    assert dist == {"wing": pytest.approx((d1 + d2) / 2.0)}


def test_keypoint_distance_matches_scene_keypoints(tiny_dataset, taxonomy):
    scene = tiny_dataset.scenes_in_split("test")[0]
    sentence = [s for s in tiny_dataset.sentences
                if s.scene_id == scene.scene_id][0]
    phrases = textproc.chunk_sentence(sentence.tokens, taxonomy)
    grounded = grounding.ground_all(phrases, scene, taxonomy,
                                    tiny_dataset.grounder)
    dist = keypoint_distance(grounded, scene, taxonomy)
    for g in grounded:
        part = taxonomy.canonical_part(g.phrase.noun)
        assert part in dist


# -- correctness ------------------------------------------------------------------

def test_phrase_correct_cases(taxonomy):
    region = Region("wing", (0.0, 0.0, 0.5, 0.5),
                    {"color": "red", "size": "long", "pattern": "plain"})
    scene = Scene(0, 0, [region], {"wing": (0.1, 0.1)}, "test")
    assert phrase_correct(make_phrase(["red"], "wing"), scene, taxonomy)
    assert phrase_correct(make_phrase(["long", "red"], "wing"), scene,
                          taxonomy)
    assert not phrase_correct(make_phrase(["blue"], "wing"), scene, taxonomy)
    assert not phrase_correct(make_phrase(["red", "blue"], "wing"), scene,
                              taxonomy)
    # a noun without a region in the scene is never correct
    assert not phrase_correct(make_phrase(["red"], "head"), scene, taxonomy)


def test_phrase_correct_uses_canonical_part(tiny_dataset, taxonomy):
    scene = tiny_dataset.scenes[0]
    body = scene.region_for("body")
    aliased = make_phrase([body.attrs["color"]], "bird")
    assert phrase_correct(aliased, scene, taxonomy)
    wrong = next(c for c in taxonomy.categories["color"]
                 if c != body.attrs["color"])
    assert not phrase_correct(make_phrase([wrong], "feathers"), scene,
                              taxonomy)


def test_cnp_cs_hand_case(taxonomy):
    region = Region("wing", (0.0, 0.0, 0.5, 0.5),
                    {"color": "red", "size": "long", "pattern": "plain"})
    scene = Scene(0, 0, [region], {"wing": (0.1, 0.1)}, "test")
    good = make_phrase(["red"], "wing")
    bad = make_phrase(["blue"], "wing")
    phrase_lists = [[good, good], [good, bad], [], [bad]]
    scenes = [scene] * 4
    cnp, cs = cnp_cs(phrase_lists, scenes, taxonomy)
    assert cnp == pytest.approx(3 / 5)   # five phrases, three correct
    assert cs == pytest.approx(1 / 4)    # empty sentences count as incorrect


def test_cnp_cs_empty_inputs(taxonomy):
    assert cnp_cs([], [], taxonomy) == (0.0, 0.0)


# -- method comparison ---------------------------------------------------------------

@pytest.fixture(scope="module")
def comparison(tiny_dataset):
    hyper = CriticHyper(embed_dim=4, input_dim=8, hidden_dim=8, head_dim=8)
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, hyper, seed=0)
    lms = generation.fit_class_lms(tiny_dataset)
    return compare_methods(tiny_dataset, model, lms, n=20, seed=0)


def test_compare_methods_structure(tiny_dataset, comparison):
    assert comparison.split == "test"
    assert comparison.num_scenes == len(tiny_dataset.scenes_in_split("test"))
    assert set(comparison.methods) == set(METHODS)
    for metrics in comparison.methods.values():
        assert 0.0 <= metrics.cnp <= 1.0
        assert 0.0 <= metrics.cs <= 1.0
        for value in metrics.keypoint_acc.values():
            assert 0.0 <= value <= 1.0
        for value in metrics.keypoint_dist.values():
            assert value >= 0.0
        assert set(metrics.keypoint_dist) == set(metrics.keypoint_acc)
        assert metrics.excluded >= 0


def test_compare_methods_deterministic(tiny_dataset, comparison):
    hyper = CriticHyper(embed_dim=4, input_dim=8, hidden_dim=8, head_dim=8)
    model = CriticModel.for_taxonomy(tiny_dataset.taxonomy, hyper, seed=0)
    lms = generation.fit_class_lms(tiny_dataset)
    again = compare_methods(tiny_dataset, model, lms, n=20, seed=0)
    assert again.to_json() == comparison.to_json()


def test_metric_report_json_matches_schema(comparison):
    jsonschema = pytest.importorskip("jsonschema")
    payload = comparison.to_json()
    assert payload["format"] == 1
    assert list(payload["methods"]) == sorted(payload["methods"])
    jsonschema.validate(payload, load_schema("metrics"))


def test_metric_report_tables(comparison):
    table = comparison.cnp_cs_table()
    for name in METHODS:
        assert name in table
    assert "CNP" in table and "CS" in table
    kp = comparison.keypoint_table()
    assert "part" in kp
