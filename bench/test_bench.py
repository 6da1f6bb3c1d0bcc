"""Fast tests of the benchmark's oracles and tracer on a tiny world.

Every oracle must agree with the program on honest artifacts and reject a
deliberately corrupted one. Quality floors are not asserted here: a tiny
world cannot train a good critic.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracer  # noqa: E402
from phrasecritic import grounding, textproc  # noqa: E402
from phrasecritic.cli import main  # noqa: E402
from phrasecritic.worldsim import Dataset  # noqa: E402

LIMIT = 6


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench")
    p = {k: str(d / f"{k}.json") for k in (
        "dataset", "critic", "report", "pairs", "ranked", "counterfactuals",
        "metrics", "binary", "foil")}
    serve = ("--dataset", p["dataset"], "--model", p["critic"], "--limit",
             str(LIMIT), "--candidates", "20", "--seed", "3")
    calls = [
        ("synth", "--out", p["dataset"], "--seed", "3", "--classes", "4",
         "--scenes-per-class", "10", "--sentences-per-scene", "3"),
        ("train", "--dataset", p["dataset"], "--objective", "rank",
         "--epochs", "2", "--pairs-per-scene", "3", "--seed", "3", "--out",
         p["critic"], "--report-out", p["report"], "--pairs-out",
         p["pairs"]),
        ("rank", *serve, "--out", p["ranked"]),
        ("counterfactual", *serve, "--out", p["counterfactuals"]),
        ("eval", *serve, "--out", p["metrics"]),
        ("train", "--dataset", p["dataset"], "--objective", "binary",
         "--epochs", "2", "--seed", "3", "--out", p["binary"]),
        ("foil", "--dataset", p["dataset"], "--model", p["binary"], "--out",
         p["foil"]),
    ]
    for argv in calls:
        assert main(list(argv)) == 0, argv
    loaded = {}
    for key, path in p.items():
        with open(path) as fh:
            loaded[key] = json.load(fh)
    loaded["dataset_path"] = p["dataset"]
    return loaded


@pytest.fixture(scope="module")
def world(artifacts):
    return oracles.World(artifacts["dataset"])


def test_artifacts_match_schemas(artifacts):
    schemas = oracles.SchemaChecker(BENCH.parent / "docs" / "schemas")
    for kind, key in (("dataset", "dataset"), ("pairs", "pairs"),
                      ("checkpoint", "critic"), ("checkpoint", "binary"),
                      ("explanations", "ranked"),
                      ("counterfactuals", "counterfactuals"),
                      ("metrics", "metrics"), ("foil_report", "foil")):
        assert schemas.check(kind, artifacts[key]) == [], key
    broken = copy.deepcopy(artifacts["pairs"])
    broken["pairs"][0]["flips"] = []
    assert schemas.check("pairs", broken)


def test_chunker_and_grounding_agree_with_program(artifacts, world):
    dataset = Dataset.load(artifacts["dataset_path"])
    scenes = {s.scene_id: s for s in dataset.scenes}
    for sentence in dataset.sentences:
        phrases = textproc.chunk_sentence(sentence.tokens, dataset.taxonomy)
        assert world.phrases(sentence.tokens) == [
            (p.adjectives, p.noun) for p in phrases]
        scene = scenes[sentence.scene_id]
        for i, g in enumerate(grounding.ground_all(
                phrases, scene, dataset.taxonomy, dataset.grounder)):
            assert world.ground(g.phrase.adjectives, g.phrase.noun,
                                world.scenes[sentence.scene_id], i) \
                == (g.region_index, g.score)


def test_pairs_oracle(artifacts, world):
    pairs = artifacts["pairs"]
    assert oracles.check_pairs(world, pairs) == []
    assert oracles.check_train_report(artifacts["report"], "rank") == []
    assert oracles.check_checkpoint(artifacts["critic"], "rank") == []
    assert oracles.check_checkpoint(artifacts["binary"], "rank")

    true_negative = copy.deepcopy(pairs)
    first = true_negative["pairs"][0]
    first["negative"] = list(first["positive"])
    assert any("true of its scene" in e
               for e in oracles.check_pairs(world, true_negative))

    recategorised = copy.deepcopy(pairs)
    first = recategorised["pairs"][0]
    pos = first["flips"][0]
    category = world.category[first["positive"][pos]]
    other = "wing" if category != "part" else "red"
    first["negative"][pos] = other
    assert any("changes category" in e
               for e in oracles.check_pairs(world, recategorised))

    duplicated = copy.deepcopy(pairs)
    duplicated["pairs"].append(copy.deepcopy(duplicated["pairs"][0]))
    assert any("duplicate" in e
               for e in oracles.check_pairs(world, duplicated))

    foreign = copy.deepcopy(pairs)
    foreign["pairs"][0]["positive"] = list(foreign["pairs"][0]["negative"])
    assert any("not a scene truth" in e
               for e in oracles.check_pairs(world, foreign))


def test_explanations_oracle(artifacts, world):
    ranked = artifacts["ranked"]
    assert oracles.check_explanations(world, ranked, limit=LIMIT) == []

    swapped = copy.deepcopy(ranked)
    phrase = swapped["explanations"][0]["phrases"][0]
    phrase["region_index"] = (phrase["region_index"] + 1) % 8
    assert oracles.check_explanations(world, swapped, limit=LIMIT)

    rescored = copy.deepcopy(ranked)
    rescored["explanations"][0]["phrases"][0]["score"] += 1e-9
    assert oracles.check_explanations(world, rescored, limit=LIMIT)

    ungated = copy.deepcopy(ranked)
    ungated["explanations"][0]["fluency"] = ungated["threshold"]
    ungated["explanations"][0]["fallback"] = False
    assert any("gate" in e for e in
               oracles.check_explanations(world, ungated, limit=LIMIT))


def test_metrics_oracle(artifacts, world):
    metrics, ranked = artifacts["metrics"], artifacts["ranked"]
    assert oracles.check_metrics(world, metrics, ranked) == []
    altered = copy.deepcopy(metrics)
    altered["methods"]["phrase_critic"]["cs"] -= 1.0 / LIMIT
    assert oracles.check_metrics(world, altered, ranked)
    level = copy.deepcopy(metrics)
    for m in level["methods"].values():
        m["cs"] = 0.5
    assert len(oracles.floor_metrics(level)) == 2


def test_counterfactual_oracle(artifacts, world):
    cfs = artifacts["counterfactuals"]
    assert oracles.check_counterfactuals(world, cfs) == []
    counts = oracles.evidence_untrue(world, cfs)
    assert counts["total"] == LIMIT
    assert counts["untrue_when_possible"] <= counts["possible"] <= LIMIT

    wrong_class = copy.deepcopy(cfs)
    rec = wrong_class["counterfactuals"][0]
    rec["counterfactual_class"] = (rec["counterfactual_class"] + 1) % 4
    if rec["counterfactual_class"] == rec["class_id"]:
        rec["counterfactual_class"] = (rec["counterfactual_class"] + 1) % 4
    assert oracles.check_counterfactuals(world, wrong_class)

    wrong_evidence = copy.deepcopy(cfs)
    rec = wrong_evidence["counterfactuals"][0]
    rec["phrase_scores"].append({"text": "tiny beak",
                                 "score": min(p["score"] for p in
                                              rec["phrase_scores"]) - 1.0})
    assert any("lowest-scored" in e
               for e in oracles.check_counterfactuals(world, wrong_evidence))

    # Evidence true of the query although an untrue phrase was on offer.
    missed = copy.deepcopy(cfs)
    for rec in missed["counterfactuals"]:
        region = world.scenes[rec["scene_id"]]["regions"][0]
        color = region["attrs"]["color"]
        other = next(c for c in world.tokens_of["color"] if c != color)
        rec["evidence"] = f"{color} {region['part']}"
        rec["phrase_scores"].append({"text": f"{other} {region['part']}",
                                     "score": 0.0})
    counts = oracles.evidence_untrue(world, missed)
    assert counts["untrue"] == 0
    assert counts["possible"] > 0
    assert oracles.floor_counterfactuals(world, missed)


def test_foil_oracle(artifacts, world):
    report = artifacts["foil"]
    baseline = oracles.baseline_report(world)
    assert oracles.check_foil_report(world, report, baseline) == []
    n_foils = sum(1 for s in artifacts["dataset"]["sentences"]
                  if s["foil"] is not None
                  and world.scenes[s["scene_id"]]["split"] == "test")
    assert report["num_foils"] == n_foils

    for key, bump in (("tau", 1e-9), ("num_foils", 1)):
        altered = copy.deepcopy(report)
        altered[key] += bump
        assert oracles.check_foil_report(world, altered, baseline)
    altered = copy.deepcopy(report)
    altered["baseline"]["detection"] += 0.25
    assert oracles.check_foil_report(world, altered, baseline)

    chance = copy.deepcopy(report)
    chance["critic"] = dict(chance["baseline"])
    assert len(oracles.floor_foil_report(chance)) >= 3


def test_tracer_records_spans_and_restores(artifacts, tmp_path, monkeypatch):
    original = grounding.ground_phrase
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("grounding", "no_such_function", None),))
    trace = tracer.Trace()
    argv = ["rank", "--dataset", artifacts["dataset_path"], "--model",
            str(tmp_path / "missing.json"), "--out",
            str(tmp_path / "r.json")]
    with tracer.Patcher(trace) as patcher:
        import phrasecritic.cli as cli
        assert grounding.ground_phrase is not original
        assert cli.main(argv) == 3            # missing model file
        Dataset.load(artifacts["dataset_path"])
    assert grounding.ground_phrase is original
    assert patcher.missing == ["grounding.no_such_function"]
    summary = trace.summary()
    assert summary["functions"]["cli.main"]["calls"] == 1
    assert summary["functions"]["worldsim.Dataset.load"]["calls"] == 2
    load = summary["functions"]["worldsim.Dataset.load"]
    assert 0.0 < load["self_s"] <= load["s"]
    assert summary["layers"]["cli"] > 0.0
    gone = tracer.missing_metrics(patcher.missing)
    assert gone == {"grounding.no_such_function.calls",
                    "grounding.no_such_function.s"}
    values = tracer.per_layer(summary, [])
    assert values["worldsim.Dataset.load.calls"] == 2.0
    assert set(values) | {tracer.OVERHEAD} == set(tracer.metric_units())
