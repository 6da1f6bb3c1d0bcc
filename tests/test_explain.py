"""Gated selection, counterfactual class/evidence, negation templates."""

import numpy as np
import pytest

from phrasecritic import generation, grounding, textproc
from phrasecritic.critic import CriticHyper, CriticModel
from phrasecritic.explain import (DEFAULT_FLUENCY_THRESHOLD, Explanation,
                                  counterfactual_class,
                                  counterfactual_evidence,
                                  explanation_to_json, ground_candidates,
                                  negate_phrase, select_explanation)
from phrasecritic.worldsim import assignment_distance

from conftest import assert_same_groundings


@pytest.fixture(scope="module")
def model(tiny_dataset):
    hyper = CriticHyper(embed_dim=4, input_dim=8, hidden_dim=8, head_dim=8)
    return CriticModel.for_taxonomy(tiny_dataset.taxonomy, hyper, seed=0)


@pytest.fixture(scope="module")
def lms(tiny_dataset):
    return generation.fit_class_lms(tiny_dataset)


@pytest.fixture(scope="module")
def scene_candidates(tiny_dataset, lms):
    scene = tiny_dataset.scenes_in_split("test")[0]
    profile = tiny_dataset.profile_for(scene.class_id)
    candidates = generation.sample_candidates(
        scene, profile, tiny_dataset.taxonomy, lms[scene.class_id], n=30,
        error_rate=0.3, seed=np.random.default_rng(11))
    return scene, candidates


# -- selection ----------------------------------------------------------------

def test_selection_picks_most_relevant_survivor(tiny_dataset, model,
                                                scene_candidates):
    scene, candidates = scene_candidates
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    explanation = select_explanation(candidates, scene, model, taxonomy,
                                     config)
    assert not explanation.fallback
    assert explanation.gated_score == explanation.relevance
    assert explanation.candidate is candidates[explanation.rank]
    assert explanation.fluency > DEFAULT_FLUENCY_THRESHOLD
    # oracle: rescore every surviving candidate one by one
    groundings = ground_candidates(candidates, scene, taxonomy, config)
    best_idx, best_score = None, None
    for i, c in enumerate(candidates):
        if c.fluency <= DEFAULT_FLUENCY_THRESHOLD or not c.phrases:
            continue
        s = model.score(groundings[i])
        if best_score is None or s > best_score:
            best_idx, best_score = i, s
    assert explanation.rank == best_idx
    assert explanation.relevance == pytest.approx(best_score, abs=1e-9)


def test_gate_is_strict(tiny_dataset, model, scene_candidates):
    """Also: grounding only the survivors (or the fallback pick) selects
    exactly what grounding the whole pool up front selects."""
    scene, candidates = scene_candidates
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    pool = ground_candidates(candidates, scene, taxonomy, config)

    def select(threshold):
        lazy = select_explanation(candidates, scene, model, taxonomy, config,
                                  threshold)
        eager = select_explanation(candidates, scene, model, taxonomy,
                                   config, threshold, groundings=pool)
        assert (lazy.rank, lazy.relevance, lazy.gated_score,
                lazy.fallback) == (eager.rank, eager.relevance,
                                   eager.gated_score, eager.fallback)
        assert_same_groundings(lazy.groundings, eager.groundings)
        return lazy

    fluencies = sorted(c.fluency for c in candidates)
    assert not select(DEFAULT_FLUENCY_THRESHOLD).fallback
    # threshold exactly at the best fluency gates everything (strict >)
    explanation = select(fluencies[-1])
    assert explanation.fallback
    # epsilon below it lets exactly the top candidate through
    explanation = select(fluencies[-1] - 1e-9)
    assert not explanation.fallback
    assert explanation.fluency == fluencies[-1]


def test_selection_grounds_its_pool_in_one_call(tiny_dataset, model,
                                                scene_candidates,
                                                monkeypatch):
    """Without given groundings, one ground_many call over the survivors,
    or over the fallback pick alone."""
    scene, candidates = scene_candidates
    calls = []
    ground_many = grounding.ground_many

    def recording(sentences, scene, taxonomy, config):
        calls.append(len(sentences))
        return ground_many(sentences, scene, taxonomy, config)

    monkeypatch.setattr(grounding, "ground_many", recording)
    survivors = sum(c.fluency > DEFAULT_FLUENCY_THRESHOLD and bool(c.phrases)
                    for c in candidates)
    assert survivors > 1
    for threshold, expected in ((DEFAULT_FLUENCY_THRESHOLD, survivors),
                                (0.0, 1)):
        calls.clear()
        select_explanation(candidates, scene, model, tiny_dataset.taxonomy,
                           tiny_dataset.grounder, threshold)
        assert calls == [expected]


def test_fallback_returns_most_fluent(tiny_dataset, model, scene_candidates):
    scene, candidates = scene_candidates
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    explanation = select_explanation(candidates, scene, model, taxonomy,
                                     config, threshold=0.0)
    assert explanation.fallback
    assert explanation.gated_score == 0.0
    assert explanation.fluency == max(c.fluency for c in candidates)
    assert explanation.relevance is not None  # still reported for inspection


def test_selection_tie_breaks_to_earliest(tiny_dataset, model,
                                          scene_candidates):
    scene, candidates = scene_candidates
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    first = candidates[5]
    duplicated = candidates[:5] + [first] + candidates[5:]
    explanation = select_explanation(duplicated, scene, model, taxonomy,
                                     config)
    dup_positions = [i for i, c in enumerate(duplicated) if c is first]
    if explanation.candidate is first:
        assert explanation.rank == dup_positions[0]


def test_later_duplicate_scored_higher_loses_the_tie(tiny_dataset, model,
                                                    scene_candidates):
    """A batch may score a later copy of a candidate one ulp higher than
    the first; selection still picks the first copy."""
    scene, candidates = scene_candidates
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    best = select_explanation(candidates, scene, model, taxonomy, config)
    duplicated = candidates + [best.candidate]

    batches = []

    class LaterCopyHigher:
        def score_many(self, sequences):
            scores = model.score_many(sequences)
            scores[-1] = np.nextafter(scores[-1], np.inf)
            batches.append((sequences, scores))
            return scores

    explanation = select_explanation(duplicated, scene, LaterCopyHigher(),
                                     taxonomy, config)
    assert explanation.rank == best.rank
    [(sequences, scores)] = batches
    first = next(r for r, seq in enumerate(sequences)
                 if seq is explanation.groundings)
    assert scores[first] < scores[-1]
    assert explanation.relevance == scores[first]


def test_selection_rejects_empty_candidate_list(tiny_dataset, model):
    scene = tiny_dataset.scenes[0]
    with pytest.raises(ValueError, match="no candidates"):
        select_explanation([], scene, model, tiny_dataset.taxonomy,
                           tiny_dataset.grounder)


def test_phraseless_candidates_are_gated(tiny_dataset, model, lms):
    scene = tiny_dataset.scenes_in_split("test")[0]
    lm = lms[scene.class_id]
    bare = ["this", "is", "a", "bird"]
    phraseless = generation.Candidate(bare, generation.fluency(bare, lm), [],
                                      scene.class_id)
    explanation = select_explanation([phraseless], scene, model,
                                     tiny_dataset.taxonomy,
                                     tiny_dataset.grounder)
    assert explanation.fallback
    assert explanation.relevance is None
    assert explanation.gated_score == 0.0


def test_ground_candidates_matches_individual_grounding(tiny_dataset,
                                                        scene_candidates):
    scene, candidates = scene_candidates
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    batched = ground_candidates(candidates, scene, taxonomy, config)
    for candidate, seq in zip(candidates, batched):
        alone = grounding.ground_all(candidate.phrases, scene, taxonomy,
                                     config)
        assert len(alone) == len(seq)
        for a, b in zip(alone, seq):
            assert a.region_index == b.region_index
            assert a.score == b.score


def test_explanation_to_json_record(tiny_dataset, model, scene_candidates):
    scene, candidates = scene_candidates
    explanation = select_explanation(candidates, scene, model,
                                     tiny_dataset.taxonomy,
                                     tiny_dataset.grounder)
    record = explanation_to_json(explanation, scene)
    assert record["scene_id"] == scene.scene_id
    assert record["class_id"] == scene.class_id
    assert record["tokens"] == list(explanation.tokens)
    assert record["text"] == " ".join(explanation.tokens)
    assert record["fallback"] is False
    assert len(record["phrases"]) == len(explanation.groundings)
    for entry, g in zip(record["phrases"], explanation.groundings):
        assert entry["part"] == g.part
        assert entry["region_index"] == g.region_index
        assert entry["score"] == g.score
        assert entry["noun"] == g.phrase.noun


# -- counterfactual class ------------------------------------------------------

def test_counterfactual_class_oracle(tiny_dataset):
    for scene in tiny_dataset.scenes_in_split("test"):
        got = counterfactual_class(scene, tiny_dataset.profiles)
        assert got != scene.class_id
        assignment = scene.assignment()
        distances = {
            p.class_id: assignment_distance(assignment, p.assignment())
            for p in tiny_dataset.profiles if p.class_id != scene.class_id}
        assert distances[got] == min(distances.values())


def test_counterfactual_class_needs_other_classes(tiny_dataset):
    scene = tiny_dataset.scenes[0]
    own = [p for p in tiny_dataset.profiles if p.class_id == scene.class_id]
    with pytest.raises(ValueError, match="no other class"):
        counterfactual_class(scene, own)


# -- counterfactual evidence ----------------------------------------------------

def test_counterfactual_evidence_structure(tiny_dataset, model, lms):
    scene = tiny_dataset.scenes_in_split("test")[0]
    cf = counterfactual_class(scene, tiny_dataset.profiles)
    evidence, scores, explanation, neighbour = counterfactual_evidence(
        scene, cf, tiny_dataset, model, lms, n=40)
    assert neighbour.class_id == cf
    assert len(scores) == len(explanation.phrases)
    assert evidence in explanation.phrases
    assert explanation.phrases.index(evidence) == int(np.argmin(scores))
    # the evidence phrase is re-scored in the query scene, alone
    grounded = grounding.ground_all(explanation.phrases, scene,
                                    tiny_dataset.taxonomy,
                                    tiny_dataset.grounder)
    recomputed = [model.score([g]) for g in grounded]
    assert recomputed == pytest.approx(scores, abs=1e-9)


def test_counterfactual_evidence_rejects_empty_class(tiny_dataset, model,
                                                     lms):
    scene = tiny_dataset.scenes[0]
    missing = len(tiny_dataset.profiles) + 5
    with pytest.raises(ValueError, match="no scenes"):
        counterfactual_evidence(scene, missing, tiny_dataset, model, lms)


def test_counterfactual_evidence_deterministic(tiny_dataset, model, lms):
    scene = tiny_dataset.scenes_in_split("test")[1]
    cf = counterfactual_class(scene, tiny_dataset.profiles)
    runs = [counterfactual_evidence(scene, cf, tiny_dataset, model, lms,
                                    n=30) for _ in range(2)]
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert runs[0][3].scene_id == runs[1][3].scene_id


# -- negation templates ----------------------------------------------------------

def test_negate_phrase_singular():
    phrase = textproc.AttributePhrase(("red",), "wing", (0, 2), (0,), 1)
    negation, conditional = negate_phrase(phrase, "species 03")
    assert negation == "this bird does not have a red wing"
    assert conditional == ("if this bird had been a species 03, "
                           "it would have had a red wing")


def test_negate_phrase_stacked_adjectives():
    phrase = textproc.AttributePhrase(("long", "black"), "beak", (0, 3),
                                      (0, 1), 2)
    negation, conditional = negate_phrase(phrase, "species 00")
    assert negation == "this bird does not have a long black beak"
    assert conditional.endswith("it would have had a long black beak")


@pytest.mark.parametrize("noun", ["feet", "feathers"])
def test_negate_phrase_plural_drops_article(noun):
    phrase = textproc.AttributePhrase(("black",), noun, (0, 2), (0,), 1)
    negation, conditional = negate_phrase(phrase, "species 01")
    assert negation == f"this bird does not have black {noun}"
    assert conditional == (f"if this bird had been a species 01, "
                           f"it would have had black {noun}")
