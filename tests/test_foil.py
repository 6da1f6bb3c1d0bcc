"""Foil tasks: example building, detection/correction logic, evaluation."""

from itertools import groupby

import numpy as np
import pytest

from phrasecritic import foil, grounding, textproc
from phrasecritic.critic import CriticHyper, CriticModel, _sigmoid
from phrasecritic.foil import (FoilExample, baseline_classify,
                               build_foil_examples, classify,
                               content_word_indices, correct_foil_word,
                               detect_foil_word, run_foil_eval,
                               train_foil_classifier, tune_tau,
                               _best_threshold, _first_max,
                               _holdout_variants, _substitution_variants,
                               _variant_probs)
from phrasecritic.negatives import contradicts_scene
from phrasecritic.worldsim import ATTRIBUTE_CATEGORIES

from conftest import load_schema, record_grounders


@pytest.fixture(scope="module")
def model(tiny_dataset):
    hyper = CriticHyper(embed_dim=4, input_dim=8, hidden_dim=8, head_dim=8)
    return CriticModel.for_taxonomy(tiny_dataset.taxonomy, hyper, seed=0,
                                    objective="binary")


def truth_scorer(scene, taxonomy):
    """Scores 1.0 when the sentence is fully supported by the scene."""
    def score(tokens):
        return 0.0 if contradicts_scene(tokens, scene, taxonomy) else 1.0
    return score


def holdout_detect(tokens, taxonomy, score_fn):
    """The task's pick with a one-sentence scorer."""
    candidates, variants = _holdout_variants(tokens, taxonomy)
    return _first_max(candidates, [score_fn(list(v)) for v, _ in variants])


def substitution_correct(tokens, foil_index, targets, score_fn):
    # the scorers read only the tokens, so no phrases are edited
    ordered, variants = _substitution_variants(tokens, foil_index, targets,
                                               [])
    return _first_max(ordered, [score_fn(list(v)) for v, _ in variants])


# -- example building ----------------------------------------------------------

def test_build_foil_examples_balanced(tiny_dataset, scene_by_id):
    for split in ("train", "val", "test"):
        examples = build_foil_examples(tiny_dataset, split)
        n_foils = sum(1 for s in tiny_dataset.sentences
                      if s.foil is not None
                      and scene_by_id[s.scene_id].split == split)
        assert len(examples) == 2 * n_foils
        labels = [ex.label for ex in examples]
        assert labels.count(True) == labels.count(False)
        for restored, foiled in zip(examples[::2], examples[1::2]):
            assert restored.label and not foiled.label
            assert restored.scene_id == foiled.scene_id
            diff = [i for i, (a, b)
                    in enumerate(zip(restored.tokens, foiled.tokens))
                    if a != b]
            assert diff == [foiled.foil_index]
            assert restored.tokens[foiled.foil_index] == foiled.correction
            assert scene_by_id[restored.scene_id].split == split


def test_restored_examples_are_true(tiny_dataset, scene_by_id):
    examples = build_foil_examples(tiny_dataset, "test")
    for ex in examples:
        scene = scene_by_id[ex.scene_id]
        contradicts = contradicts_scene(ex.tokens, scene,
                                        tiny_dataset.taxonomy)
        assert contradicts == (not ex.label)


# -- classification -------------------------------------------------------------

def test_classify_matches_sigmoid_of_score(tiny_dataset, model, scene_by_id):
    examples = build_foil_examples(tiny_dataset, "test")[:8]
    for ex in examples:
        scene = scene_by_id[ex.scene_id]
        result = classify(ex.tokens, scene, model, tiny_dataset.taxonomy,
                          tiny_dataset.grounder)
        phrases = textproc.chunk_sentence(ex.tokens, tiny_dataset.taxonomy)
        seq = grounding.ground_all(phrases, scene, tiny_dataset.taxonomy,
                                   tiny_dataset.grounder)
        expected = float(_sigmoid(np.array(model.score(seq))))
        assert result.probability == pytest.approx(expected, abs=1e-12)
        assert result.relevant == (expected > 0.5)
        assert not result.zero_phrases


def test_classify_zero_phrases_is_foil(tiny_dataset, model):
    scene = tiny_dataset.scenes[0]
    result = classify(["this", "is", "a"], scene, model,
                      tiny_dataset.taxonomy, tiny_dataset.grounder)
    assert result.zero_phrases
    assert not result.relevant
    assert result.probability == 0.0


# -- content words ----------------------------------------------------------------

def test_content_word_indices(tiny_dataset, taxonomy):
    tokens = ["this", "is", "a", "red", "bird", "with", "a", "long", "beak"]
    got = content_word_indices(tokens, taxonomy)
    expected = [i for i, t in enumerate(tokens)
                if taxonomy.category_of(t) in ATTRIBUTE_CATEGORIES
                or taxonomy.category_of(t) == "part"]
    assert got == expected == [3, 4, 7, 8]


# -- detection --------------------------------------------------------------------

def test_holdout_detect_with_truth_scorer(tiny_dataset, taxonomy):
    """Removing the foiled adjective (and nothing before it) restores
    truth, so a perfect scorer pins the foil exactly."""
    scene = tiny_dataset.scenes[0]
    wing = scene.region_for("wing")
    head = scene.region_for("head")
    wrong = next(c for c in taxonomy.categories["color"]
                 if c != wing.attrs["color"])
    tokens = ["this", "bird", "has", "a", wrong, "wing", "and", "a",
              head.attrs["color"], "head"]
    assert contradicts_scene(tokens, scene, taxonomy)
    got = holdout_detect(tokens, taxonomy, truth_scorer(scene, taxonomy))
    assert got == 4


def test_holdout_detect_tie_breaks_to_first_content_word(tiny_dataset,
                                                         taxonomy):
    tokens = ["this", "bird", "has", "a", "red", "wing"]
    assert content_word_indices(tokens, taxonomy) == [1, 4, 5]
    got = holdout_detect(tokens, taxonomy, lambda _: 0.5)
    assert got == 1


def test_holdout_detect_requires_content_words(taxonomy):
    with pytest.raises(ValueError, match="content"):
        holdout_detect(["this", "is", "a"], taxonomy, lambda _: 0.0)


def test_detect_foil_word_uses_critic(tiny_dataset, model, scene_by_id):
    examples = [ex for ex in build_foil_examples(tiny_dataset, "test")
                if not ex.label][:5]
    for ex in examples:
        scene = scene_by_id[ex.scene_id]
        got = detect_foil_word(ex.tokens, scene, model,
                               tiny_dataset.taxonomy, tiny_dataset.grounder)
        assert got in content_word_indices(ex.tokens, tiny_dataset.taxonomy)


# -- correction -------------------------------------------------------------------

def test_substitution_correct_with_truth_scorer(tiny_dataset, scene_by_id):
    """The original token is the unique truth-restoring substitution for an
    attribute foil, so a perfect scorer always recovers it."""
    taxonomy = tiny_dataset.taxonomy
    examples = [ex for ex in build_foil_examples(tiny_dataset, "test")
                if not ex.label]
    assert len(examples) >= 8
    for ex in examples:
        scene = scene_by_id[ex.scene_id]
        targets = taxonomy.flip_pool(ex.tokens[ex.foil_index])
        got = substitution_correct(ex.tokens, ex.foil_index, targets,
                                   truth_scorer(scene, taxonomy))
        assert got == ex.correction


def test_substitution_correct_lexicographic_ties():
    got = substitution_correct(["the", "wing"], 1, ("red", "blue", "green"),
                               lambda _: 1.0)
    assert got == "blue"


def test_substitution_correct_rejects_empty_targets():
    with pytest.raises(ValueError, match="empty"):
        substitution_correct(["a", "red", "wing"], 1, (), lambda _: 0.0)


def test_correct_foil_word_default_targets(tiny_dataset, model, scene_by_id):
    ex = next(e for e in build_foil_examples(tiny_dataset, "test")
              if not e.label)
    scene = scene_by_id[ex.scene_id]
    got = correct_foil_word(ex.tokens, ex.foil_index, scene, model,
                            tiny_dataset.taxonomy, tiny_dataset.grounder)
    assert got in tiny_dataset.taxonomy.flip_pool(ex.tokens[ex.foil_index])
    assert got != ex.tokens[ex.foil_index]


def test_correct_foil_word_equals_brute_force_classify(tiny_dataset, model,
                                                       scene_by_id):
    """At every content index of a few true test sentences, part nouns and
    the alias bird included, the pick is the first sorted flip_pool token
    whose substituted sentence, chunked from scratch, has the highest
    classify probability."""
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    examples = [ex for ex in build_foil_examples(tiny_dataset, "test")
                if ex.label][:4]
    replaced = set()
    for ex in examples:
        scene, t = scene_by_id[ex.scene_id], ex.tokens
        for k in content_word_indices(t, taxonomy):
            pool = sorted(taxonomy.flip_pool(t[k]))
            probs = [classify(t[:k] + [w] + t[k + 1:], scene, model,
                              taxonomy, config).probability for w in pool]
            assert correct_foil_word(t, k, scene, model, taxonomy,
                                     config) == pool[int(np.argmax(probs))]
            replaced.add(t[k])
    assert "bird" in replaced and replaced & set(taxonomy.parts)


# -- baseline threshold ------------------------------------------------------------

def test_tune_tau_is_optimal_midpoint(tiny_dataset, scene_by_id):
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    examples = build_foil_examples(tiny_dataset, "train")
    tau = tune_tau(examples, scene_by_id, taxonomy, config)

    means = []
    labels = []
    for ex in examples:
        phrases = textproc.chunk_sentence(ex.tokens, taxonomy)
        seq = grounding.ground_all(phrases, scene_by_id[ex.scene_id],
                                   taxonomy, config)
        means.append(grounding.mean_grounding_score(seq) if seq
                     else float("-inf"))
        labels.append(ex.label)
    means = np.array(means)
    labels = np.array(labels)

    def accuracy(threshold):
        return float(np.mean((means > threshold) == labels))

    finite = np.unique(means[np.isfinite(means)])
    midpoints = (finite[:-1] + finite[1:]) / 2.0
    best = max(accuracy(m) for m in midpoints)
    assert accuracy(tau) == best
    optimal = [m for m in midpoints if accuracy(m) == best]
    assert tau == pytest.approx(min(optimal))


def test_tune_tau_degenerate_cases(tiny_dataset, scene_by_id):
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    examples = build_foil_examples(tiny_dataset, "train")

    # no finite means at all
    hollow = [FoilExample(examples[0].scene_id, ["this", "is", "a"], False,
                          [])]
    assert tune_tau(hollow, scene_by_id, taxonomy, config) == 0.0
    # a single distinct mean: threshold sits one unit below it
    single = [examples[0], examples[0]]
    tau = tune_tau(single, scene_by_id, taxonomy, config)
    phrases = textproc.chunk_sentence(examples[0].tokens, taxonomy)
    seq = grounding.ground_all(phrases, scene_by_id[examples[0].scene_id],
                               taxonomy, config)
    assert tau == pytest.approx(grounding.mean_grounding_score(seq) - 1.0)


def loop_best_threshold(means, labels):
    """The threshold search as a loop over the midpoints, as it was before
    it counted with searchsorted."""
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


@pytest.mark.parametrize("means, labels", [
    ([], []),                                       # no means
    ([2.0, 2.0, 2.0], [True, False, True]),         # all equal
    ([-np.inf, -np.inf], [False, True]),            # no finite mean
    ([1.0, 3.0], [True, False]),                    # two values, inverted
    ([1.0, 3.0, 1.0, 3.0], [False, True, False, True]),
    ([1.0, 1.0, 2.0, 2.0, 3.0, 3.0],                # ties across labels
     [True, False, False, True, True, False]),
    ([-np.inf, 0.5, 0.5, 1.5, -np.inf, 2.5],        # -inf on both sides
     [True, False, True, True, False, False]),
    ([0.1, 0.2, 0.3, 0.4], [True, False, True, False]),  # several optima
])
def test_best_threshold_equals_the_loop(means, labels):
    means, labels = np.array(means, dtype=float), np.array(labels, dtype=bool)
    got = _best_threshold(means, labels)
    assert got == loop_best_threshold(means, labels)
    assert type(got) is float


def test_best_threshold_equals_the_loop_on_random_means():
    rng = np.random.default_rng(0)
    for n in range(1, 60):
        # few distinct values, so ties are common; some -inf
        means = rng.integers(-1, 6, size=n) / 2.0
        means[means < 0] = -np.inf
        labels = rng.random(n) < 0.5
        assert _best_threshold(means, labels) == \
            loop_best_threshold(means, labels)


# -- end-to-end evaluation -----------------------------------------------------------

def test_train_foil_classifier_mechanics(tiny_dataset):
    hyper = CriticHyper(embed_dim=4, input_dim=8, hidden_dim=8, head_dim=8,
                        epochs=3)
    model, report = train_foil_classifier(tiny_dataset, hyper, seed=0)
    assert model.objective == "binary"
    assert report.epochs == 3
    assert len(report.train_loss) == 3
    assert len(report.val_metric) == 3


def test_run_foil_eval_report(tiny_dataset, model):
    report = run_foil_eval(tiny_dataset, model)
    n_foils = sum(1 for s in tiny_dataset.sentences if s.foil is not None
                  and s.scene_id in {sc.scene_id for sc in
                                     tiny_dataset.scenes_in_split("test")})
    assert report.num_examples == 2 * n_foils
    assert report.num_foils == n_foils
    for value in (report.classification, report.detection, report.correction,
                  report.baseline_classification, report.baseline_detection,
                  report.baseline_correction):
        assert 0.0 <= value <= 1.0
    assert np.isfinite(report.tau)

    forced = run_foil_eval(tiny_dataset, model, tau=2.5)
    assert forced.tau == 2.5

    table = report.to_table()
    assert "phrase critic" in table and "grounding mean" in table
    assert "%" in table


def test_run_foil_eval_grounds_each_scene_in_one_call(tiny_dataset, model,
                                                      monkeypatch):
    """One ground_many call per scene of the train examples (tuning tau),
    then one per scene of the test examples."""
    called = record_grounders(monkeypatch)
    run_foil_eval(tiny_dataset, model)
    assert called == [scene_id for split in ("train", "test")
                     for scene_id in dict.fromkeys(
                         ex.scene_id
                         for ex in build_foil_examples(tiny_dataset, split))]


def test_run_foil_eval_agrees_with_the_task_functions(tiny_dataset, model,
                                                     scene_by_id):
    """The report's six accuracies, recomputed one example at a time from
    the public task functions and a mean-score scorer that grounds each
    variant from scratch."""
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder

    def baseline_scorer(scene):
        def score(tokens):
            phrases = textproc.chunk_sentence(tokens, taxonomy)
            return grounding.mean_grounding_score(
                grounding.ground_all(phrases, scene, taxonomy, config))
        return score

    for forced_tau in (None, 2.5):
        report = run_foil_eval(tiny_dataset, model, tau=forced_tau)
        hits = [0] * 6
        examples = build_foil_examples(tiny_dataset, "test")
        for ex in examples:
            scene = scene_by_id[ex.scene_id]
            hits[0] += classify(ex.tokens, scene, model, taxonomy,
                                config).relevant == ex.label
            hits[1] += baseline_classify(ex.tokens, scene, report.tau,
                                         taxonomy, config) == ex.label
            if ex.label:
                continue
            baseline = baseline_scorer(scene)
            hits[2] += detect_foil_word(ex.tokens, scene, model, taxonomy,
                                        config) == ex.foil_index
            hits[3] += holdout_detect(ex.tokens, taxonomy,
                                      baseline) == ex.foil_index
            hits[4] += correct_foil_word(ex.tokens, ex.foil_index, scene,
                                         model, taxonomy,
                                         config) == ex.correction
            hits[5] += substitution_correct(
                ex.tokens, ex.foil_index,
                taxonomy.flip_pool(ex.tokens[ex.foil_index]),
                baseline) == ex.correction
        n, foils = len(examples), report.num_foils
        assert (report.classification, report.baseline_classification,
                report.detection, report.baseline_detection,
                report.correction, report.baseline_correction) == \
            (hits[0] / n, hits[1] / n, hits[2] / foils, hits[3] / foils,
             hits[4] / foils, hits[5] / foils)


def test_run_foil_eval_hits_equal_one_row_scores(tiny_dataset, model,
                                                 scene_by_id):
    """The critic's three accuracies, from one model.score call per variant
    (one row per batch) and strict-> picks, against the report's one
    batched call per example."""
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder

    def prob(scene, tokens):
        seq = grounding.ground_all(textproc.chunk_sentence(tokens, taxonomy),
                                   scene, taxonomy, config)
        return float(_sigmoid(np.array(model.score(seq)))) if seq else 0.0

    def pick(options, variant_of, scene):
        best, best_score = None, None
        for option in options:
            s = prob(scene, variant_of(option))
            if best_score is None or s > best_score:
                best, best_score = option, s
        return best

    report = run_foil_eval(tiny_dataset, model)
    examples = build_foil_examples(tiny_dataset, "test")
    hits = [0, 0, 0]
    for ex in examples:
        scene = scene_by_id[ex.scene_id]
        t = ex.tokens
        hits[0] += (prob(scene, t) > 0.5) == ex.label
        if ex.label:
            continue
        hits[1] += pick(content_word_indices(t, taxonomy),
                        lambda i: t[:i] + t[i + 1:], scene) == ex.foil_index
        k = ex.foil_index
        hits[2] += pick(sorted(taxonomy.flip_pool(t[k])),
                        lambda w: t[:k] + [w] + t[k + 1:],
                        scene) == ex.correction
    n, foils = len(examples), report.num_foils
    assert foils > 0 and 0 < hits[1] < foils
    assert (report.classification, report.detection, report.correction) == \
        (hits[0] / n, hits[1] / foils, hits[2] / foils)


def test_per_scene_scoring_equals_per_example_scoring(tiny_dataset, model,
                                                      scene_by_id,
                                                      monkeypatch):
    """run_foil_eval scores all variants of a scene in one score_many call.
    Against each example's variants scored in their own call, every
    probability agrees within 1e-12 and every decision is the same; a
    foil's restoring substitution is the token tuple of the scene's
    original sentence, shares its row and gets the identical probability."""
    taxonomy, config = tiny_dataset.taxonomy, tiny_dataset.grounder
    calls, rows = [], []
    critic_probs = foil._critic_probs

    def recording_probs(model_, keys, seqs):
        probs = critic_probs(model_, keys, seqs)
        calls.append((list(keys), probs))
        return probs

    class RowCounter:
        def score_many(self, sequences):
            rows.append(len(sequences))
            return model.score_many(sequences)

    monkeypatch.setattr(foil, "_critic_probs", recording_probs)
    report = run_foil_eval(tiny_dataset, RowCounter())
    monkeypatch.undo()

    examples = build_foil_examples(tiny_dataset, "test")
    runs = [(scene_id, list(run)) for scene_id, run
            in groupby(examples, lambda ex: ex.scene_id)]
    assert len(calls) == len(rows) == len(runs) < len(examples)
    hits, restored = [0, 0, 0], 0
    for (scene_id, run), (keys, probs), n_rows in zip(runs, calls, rows):
        scene = scene_by_id[scene_id]
        per_scene = dict(zip(keys, probs))
        assert [per_scene[k] for k in keys] == probs
        assert n_rows == len({k for k in keys
                              if textproc.chunk_sentence(k, taxonomy)})
        for ex in run:
            variants = [(tuple(ex.tokens), ex.phrases)]
            if not ex.label:
                candidates, held_out = _holdout_variants(ex.tokens, taxonomy)
                targets, substituted = _substitution_variants(
                    ex.tokens, ex.foil_index,
                    taxonomy.flip_pool(ex.tokens[ex.foil_index]), ex.phrases)
                variants += held_out + substituted
            own = _variant_probs(model, scene, taxonomy, config, variants)
            batched = [per_scene[key] for key, _ in variants]
            assert np.allclose(batched, own, rtol=0.0, atol=1e-12)
            assert (batched[0] > 0.5) == (own[0] > 0.5)
            hits[0] += (own[0] > 0.5) == ex.label
            if ex.label:
                original = tuple(ex.tokens)
                continue
            det = slice(1, 1 + len(candidates))
            cor = slice(det.stop, None)
            assert _first_max(candidates, batched[det]) == \
                _first_max(candidates, own[det])
            assert _first_max(targets, batched[cor]) == \
                _first_max(targets, own[cor])
            hits[1] += _first_max(candidates, own[det]) == ex.foil_index
            hits[2] += _first_max(targets, own[cor]) == ex.correction
            restoring = variants[cor.start + targets.index(ex.correction)][0]
            assert restoring == original and keys.count(original) >= 2
            assert {p for k, p in zip(keys, probs) if k == original} == \
                {per_scene[original]}
            restored += 1
    n, foils = len(examples), report.num_foils
    assert restored == foils > 0
    assert (report.classification, report.detection, report.correction) == \
        (hits[0] / n, hits[1] / foils, hits[2] / foils)


class RowOrderModel:
    """Scores row r of every batch r: a later row always wins, so only
    sequences that share a row can tie."""

    def score_many(self, sequences):
        return np.arange(len(sequences), dtype=float)


def test_coinciding_holdouts_blame_the_smaller_index(tiny_dataset, taxonomy):
    tokens = ["red", "red", "wing"]
    candidates, variants = _holdout_variants(tokens, taxonomy)
    assert candidates == [0, 1, 2]
    assert variants[0] == variants[1] == \
        (("red", "wing"), textproc.chunk_sentence(["red", "wing"], taxonomy))
    assert variants[2] == (("red", "red"), [])
    scene = tiny_dataset.scenes[0]
    assert _variant_probs(RowOrderModel(), scene, taxonomy,
                          tiny_dataset.grounder, variants) == [0.5, 0.5, 0.0]
    assert detect_foil_word(tokens, scene, RowOrderModel(), taxonomy,
                            tiny_dataset.grounder) == 0


def test_foil_report_json_matches_schema(tiny_dataset, model):
    jsonschema = pytest.importorskip("jsonschema")
    payload = run_foil_eval(tiny_dataset, model, tau=1.0).to_json()
    assert payload["format"] == 1
    jsonschema.validate(payload, load_schema("foil_report"))
