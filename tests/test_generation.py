"""Bigram model and candidate generator tests with hand-built oracles."""

import itertools
import math

import numpy as np
import pytest

from phrasecritic import (Taxonomy, chunk_sentence, fit_class_lms,
                          fit_language_model, fluency, sample_candidates,
                          worldsim)
from phrasecritic.generation import END, START, UNK, placed_phrases
from phrasecritic.metrics import phrase_correct

CORPUS = [["a", "b"], ["a", "b", "b"], ["b", "a"]]


def test_bigram_probabilities_match_add_alpha_oracle():
    alpha = 0.5
    lm = fit_language_model(CORPUS, alpha=alpha)
    # bigram counts: START->a 2, START->b 1, a->b 2, a->END 1,
    #                b->b 1, b->a 1, b->END 2
    # targets are (a, b, END, UNK), so each context row has 4 cells.
    def oracle(count, row_total):
        return math.log10((count + alpha) / (row_total + alpha * 4))

    assert lm.logprob("a", "b") == pytest.approx(oracle(2, 3), abs=1e-12)
    assert lm.logprob("b", "b") == pytest.approx(oracle(1, 4), abs=1e-12)
    assert lm.logprob("b", "a") == pytest.approx(oracle(1, 4), abs=1e-12)
    assert lm.logprob(START, "a") == pytest.approx(oracle(2, 3), abs=1e-12)
    assert lm.logprob("a", "a") == pytest.approx(oracle(0, 3), abs=1e-12)
    assert lm.logprob("b", END) == pytest.approx(oracle(2, 4), abs=1e-12)


def test_every_context_row_is_a_distribution():
    lm = fit_language_model(CORPUS, alpha=0.1)
    totals = (10.0 ** lm.logp).sum(axis=1)
    assert np.allclose(totals, 1.0, atol=1e-12)


def test_unknown_tokens_fall_back_to_unk():
    lm = fit_language_model(CORPUS, alpha=0.1)
    assert lm.logprob("zzz", "a") == lm.logprob(UNK, "a")
    assert lm.logprob("a", "zzz") == lm.logprob("a", UNK)


def test_fluency_is_the_sum_of_bigram_logprobs_plus_end():
    lm = fit_language_model(CORPUS, alpha=0.1)
    tokens = ["a", "b", "b"]
    expected = (lm.logprob(START, "a") + lm.logprob("a", "b")
                + lm.logprob("b", "b") + lm.logprob("b", END))
    assert fluency(tokens, lm) == pytest.approx(expected, abs=1e-12)


def test_fluency_of_empty_sentence_is_end_given_start():
    lm = fit_language_model(CORPUS, alpha=0.1)
    assert fluency([], lm) == pytest.approx(lm.logprob(START, END))


def test_fluency_is_always_negative_and_penalises_word_salad(tiny_dataset):
    lms = fit_class_lms(tiny_dataset)
    lm = lms[0]
    natural = next(s for s in tiny_dataset.sentences if s.foil is None)
    scrambled = list(reversed(natural.tokens))
    assert fluency(natural.tokens, lm) < 0.0
    assert fluency(natural.tokens, lm) > fluency(scrambled, lm)


def test_alpha_must_be_positive():
    with pytest.raises(ValueError, match="alpha"):
        fit_language_model(CORPUS, alpha=0.0)


def test_class_lms_are_fit_per_class(tiny_dataset):
    lms = fit_class_lms(tiny_dataset)
    assert set(lms) == {p.class_id for p in tiny_dataset.profiles}
    differs = lms[0].vocab != lms[1].vocab or \
        not np.array_equal(lms[0].logp, lms[1].logp)
    assert differs


def test_candidates_are_deterministic_given_a_seed(tiny_dataset):
    lms = fit_class_lms(tiny_dataset)
    scene = tiny_dataset.scenes[0]
    profile = tiny_dataset.profile_for(scene.class_id)
    a = sample_candidates(scene, profile, tiny_dataset.taxonomy,
                          lms[scene.class_id], n=20, seed=7)
    b = sample_candidates(scene, profile, tiny_dataset.taxonomy,
                          lms[scene.class_id], n=20, seed=7)
    assert [c.tokens for c in a] == [c.tokens for c in b]
    assert [c.fluency for c in a] == [c.fluency for c in b]


def test_zero_error_rate_only_states_scene_facts(tiny_dataset):
    lms = fit_class_lms(tiny_dataset)
    taxonomy = tiny_dataset.taxonomy
    for scene in tiny_dataset.scenes[:5]:
        profile = tiny_dataset.profile_for(scene.class_id)
        for cand in sample_candidates(scene, profile, taxonomy,
                                      lms[scene.class_id], n=30,
                                      error_rate=0.0, seed=1):
            assert cand.phrases
            for phrase in cand.phrases:
                assert phrase_correct(phrase, scene, taxonomy), cand.tokens


def test_full_error_rate_only_states_profile_priors(tiny_dataset):
    lms = fit_class_lms(tiny_dataset)
    taxonomy = tiny_dataset.taxonomy
    scene = tiny_dataset.scenes[0]
    profile = tiny_dataset.profile_for(scene.class_id)
    prior_tokens = {tok for cats in profile.attributes.values()
                    for tok in cats.values()}
    for cand in sample_candidates(scene, profile, taxonomy,
                                  lms[scene.class_id], n=30, error_rate=1.0,
                                  seed=1):
        for phrase in cand.phrases:
            assert set(phrase.adjectives) <= prior_tokens


def test_error_rate_outside_unit_interval_raises(tiny_dataset):
    lms = fit_class_lms(tiny_dataset)
    scene = tiny_dataset.scenes[0]
    profile = tiny_dataset.profile_for(scene.class_id)
    with pytest.raises(ValueError, match="error_rate"):
        sample_candidates(scene, profile, tiny_dataset.taxonomy,
                          lms[scene.class_id], error_rate=1.5)


def test_candidate_phrases_match_their_tokens(tiny_dataset):
    lms = fit_class_lms(tiny_dataset)
    scene = tiny_dataset.scenes[3]
    profile = tiny_dataset.profile_for(scene.class_id)
    for cand in sample_candidates(scene, profile, tiny_dataset.taxonomy,
                                  lms[scene.class_id], n=25, seed=3):
        assert cand.class_id == scene.class_id
        assert cand.fluency == pytest.approx(
            fluency(cand.tokens, lms[scene.class_id]))
        for phrase in cand.phrases:
            assert cand.tokens[phrase.noun_position] == phrase.noun


def reference_fluency(tokens, lm):
    """Fluency as a plain left-to-right sum of the logp entries."""
    score = 0.0
    prev = START
    for tok in list(tokens) + [END]:
        i = lm.contexts.get(prev, lm.contexts[UNK])
        j = lm.targets.get(tok, lm.targets[UNK])
        score += float(lm.logp[i, j])
        prev = tok
    return score


@pytest.mark.parametrize("frame_id", range(len(worldsim._FRAMES)))
def test_placed_phrases_equal_the_chunker(taxonomy, frame_id):
    """Every frame, part count (0-3), part choice and per-slot category:
    the phrases compose_frame placed are the ones chunking finds."""
    pool = [p for p in taxonomy.parts if p != "body"]
    colors = taxonomy.categories["color"]
    checked = 0
    for count in range(4):
        for parts in itertools.combinations(pool, count):
            for cats in itertools.product(worldsim.ATTRIBUTE_CATEGORIES,
                                          repeat=count):
                checked += 1
                picks = [(taxonomy.categories[cat][
                              (checked + k) % len(taxonomy.categories[cat])],
                          part) for k, (cat, part) in enumerate(zip(cats,
                                                                    parts))]
                tokens, slots = worldsim.compose_frame(
                    frame_id, colors[checked % len(colors)], picks)
                assert placed_phrases(tokens, slots) == \
                    chunk_sentence(tokens, taxonomy), tokens
    assert checked == 1 + 7 * 3 + 21 * 9 + 35 * 27


def test_placed_phrases_equal_the_chunker_under_each_taxonomy(taxonomy):
    """Shared phrase instances are keyed by words and positions alone: with
    colors and sizes swapped, the phrase placed for one adjective at one
    position is still the one chunking finds."""
    cats = taxonomy.categories
    swapped = Taxonomy(parts=taxonomy.parts,
                       categories={**cats, "color": cats["size"],
                                   "size": cats["color"]},
                       kappa=taxonomy.kappa, aliases=taxonomy.aliases)
    red = cats["color"][0]
    tokens, slots = worldsim.compose_frame(3, None, [(red, "wing")])
    for tax in (taxonomy, swapped, taxonomy):
        assert placed_phrases(tokens, slots) == chunk_sentence(tokens, tax)


def reference_pool(scene, profile, taxonomy, lm, n, error_rate, seed):
    """The sampler spelled out with rng.choice frame, part and category picks,
    Scene.region_for lookups, chunk_sentence and reference_fluency."""
    rng = np.random.default_rng(seed)
    cats = list(worldsim._CATEGORY_WEIGHTS)
    p = np.array([worldsim._CATEGORY_WEIGHTS[c] for c in cats])
    parts = [part for part in taxonomy.parts if part != "body"]
    pool = []
    for _ in range(n):
        frame_id, uses_bird, n_parts = worldsim._FRAMES[
            rng.choice(len(worldsim._FRAMES))]
        bird_color = None
        if uses_bird:
            true = scene.region_for("body").attrs["color"]
            prior = profile.attributes["body"]["color"]
            bird_color = prior if rng.random() < error_rate else true
        picks = []
        for i in sorted(rng.choice(len(parts), size=n_parts, replace=False)):
            part = parts[i]
            category = cats[int(rng.choice(len(cats), p=p / p.sum()))]
            true = scene.region_for(part).attrs[category]
            prior = profile.attributes[part][category]
            picks.append((prior if rng.random() < error_rate else true, part))
        tokens, _ = worldsim.compose_frame(frame_id, bird_color, picks)
        pool.append((tokens, reference_fluency(tokens, lm),
                     chunk_sentence(tokens, taxonomy), profile.class_id))
    return pool


@pytest.mark.parametrize("error_rate", [0.0, 0.3, 1.0])
def test_pool_equals_the_reference_sampler(tiny_dataset, error_rate):
    """Same tokens, chunk_sentence's phrases and the left-to-right logp sum
    as fluency, bit for bit, on 100-candidate pools."""
    lms = fit_class_lms(tiny_dataset)
    taxonomy = tiny_dataset.taxonomy
    for scene in tiny_dataset.scenes[::4]:
        lm = lms[scene.class_id]
        profile = tiny_dataset.profile_for(scene.class_id)
        pool = sample_candidates(scene, profile, taxonomy, lm, n=100,
                                 error_rate=error_rate,
                                 seed=[5, scene.scene_id])
        assert [(c.tokens, c.fluency, c.phrases, c.class_id)
                for c in pool] == reference_pool(
            scene, profile, taxonomy, lm, 100, error_rate,
            [5, scene.scene_id])
        for cand in pool:
            foreign = ["zzz"] + cand.tokens[::-1]
            assert fluency(foreign, lm) == reference_fluency(foreign, lm)
