"""End-to-end CLI workflow, output determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import phrasecritic
from phrasecritic.cli import (EXIT_BAD_CHECKPOINT, EXIT_BAD_CONFIG,
                              EXIT_DIVERGED, EXIT_MISSING_FILE, _from_args,
                              build_parser, main)
from phrasecritic.critic import CriticHyper, CriticModel
from phrasecritic.explain import DEFAULT_FLUENCY_THRESHOLD
from phrasecritic.jsonio import read_json
from phrasecritic.worldsim import Dataset, WorldConfig

from conftest import load_schema

SYNTH_FLAGS = ["--classes", "3", "--scenes-per-class", "6",
               "--sentences-per-scene", "2", "--seed", "0"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny dataset plus trained rank/binary checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    ds = str(root / "ds.json")
    rank = str(root / "rank.json")
    binary = str(root / "binary.json")
    assert main(["synth", "--out", ds] + SYNTH_FLAGS) == 0
    assert main(["train", "--dataset", ds, "--out", rank,
                 "--objective", "rank", "--epochs", "3",
                 "--pairs-per-scene", "2",
                 "--report-out", str(root / "rank_report.json")]) == 0
    assert main(["train", "--dataset", ds, "--out", binary,
                 "--objective", "binary", "--epochs", "2"]) == 0
    return {"root": root, "ds": ds, "rank": rank, "binary": binary}


# -- workflow ------------------------------------------------------------------

def test_synth_reports_counts(tmp_path, capsys):
    out = str(tmp_path / "ds.json")
    code, stdout, _ = run(capsys, "synth", "--out", out, *SYNTH_FLAGS)
    assert code == 0
    assert "18 scenes" in stdout
    payload = read_json(out)
    assert payload["format"] == 1
    assert len(payload["scenes"]) == 18


def test_synth_rerun_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(capsys, "synth", "--out", str(out), *SYNTH_FLAGS)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_checkpoint_and_report(workspace):
    checkpoint = read_json(workspace["rank"])
    assert checkpoint["kind"] == "critic"
    assert checkpoint["objective"] == "rank"
    report = read_json(str(workspace["root"] / "rank_report.json"))
    assert report["epochs"] == 3
    assert len(report["train_loss"]) == 3
    assert "wall_clock" not in report


def test_rank_writes_explanations(workspace, tmp_path, capsys):
    out = str(tmp_path / "expl.json")
    code, stdout, _ = run(capsys, "rank", "--dataset", workspace["ds"],
                          "--model", workspace["rank"], "--out", out,
                          "--limit", "3", "--candidates", "15")
    assert code == 0
    assert "3 explanations" in stdout
    payload = read_json(out)
    assert payload["format"] == 1
    assert len(payload["explanations"]) == 3
    for record in payload["explanations"]:
        assert record["tokens"]
        assert record["phrases"]
        assert record["text"] == " ".join(record["tokens"])


def test_rank_rerun_is_byte_identical(workspace, tmp_path, capsys):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        code, _, _ = run(capsys, "rank", "--dataset", workspace["ds"],
                         "--model", workspace["rank"], "--out", str(out),
                         "--limit", "3", "--candidates", "15")
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_rank_explicit_scenes_and_svg(workspace, tmp_path, capsys):
    out = str(tmp_path / "expl.json")
    svg_dir = tmp_path / "svg"
    code, _, _ = run(capsys, "rank", "--dataset", workspace["ds"],
                     "--model", workspace["rank"], "--out", out,
                     "--scene", "0", "--scene", "7",
                     "--candidates", "10", "--emit-svg", str(svg_dir))
    assert code == 0
    payload = read_json(out)
    assert [r["scene_id"] for r in payload["explanations"]] == [0, 7]
    files = sorted(p.name for p in svg_dir.iterdir())
    assert files == ["scene_00000.svg", "scene_00007.svg"]
    assert "</svg>" in (svg_dir / files[0]).read_text(encoding="utf-8")


def test_counterfactual_records(workspace, tmp_path, capsys):
    out = str(tmp_path / "cf.json")
    code, stdout, _ = run(capsys, "counterfactual",
                          "--dataset", workspace["ds"],
                          "--model", workspace["rank"], "--out", out,
                          "--limit", "2", "--candidates", "10")
    assert code == 0
    assert "2 counterfactuals" in stdout
    payload = read_json(out)
    assert len(payload["counterfactuals"]) == 2
    for record in payload["counterfactuals"]:
        assert record["counterfactual_class"] != record["class_id"]
        assert record["negation"].startswith("this bird does not have ")
        assert record["conditional"].startswith("if this bird had been a ")
        assert record["evidence"]
        assert record["phrase_scores"]


def test_artifacts_match_their_schemas(workspace, tmp_path, capsys):
    """Both checkpoints, and the rank and counterfactual outputs, validate
    against docs/schemas; a checkpoint without its hyper-parameters does
    not."""
    jsonschema = pytest.importorskip("jsonschema")
    artifacts = [(workspace["rank"], "checkpoint"),
                 (workspace["binary"], "checkpoint")]
    for command, schema in (("rank", "explanations"),
                            ("counterfactual", "counterfactuals")):
        out = str(tmp_path / f"{command}.json")
        code, _, _ = run(capsys, command, "--dataset", workspace["ds"],
                         "--model", workspace["rank"], "--out", out)
        assert code == 0
        artifacts.append((out, schema))
    for path, schema in artifacts:
        jsonschema.validate(read_json(path), load_schema(schema))
    checkpoint = read_json(workspace["rank"])
    del checkpoint["hyper"]["margin"]
    with pytest.raises(jsonschema.ValidationError, match="margin"):
        jsonschema.validate(checkpoint, load_schema("checkpoint"))


def test_foil_eval_output(workspace, tmp_path, capsys):
    out = str(tmp_path / "foil.json")
    code, stdout, _ = run(capsys, "foil", "--dataset", workspace["ds"],
                          "--model", workspace["binary"], "--out", out,
                          "--tau", "1.0", "--table")
    assert code == 0
    assert "phrase critic" in stdout
    payload = read_json(out)
    assert payload["format"] == 1
    assert payload["tau"] == 1.0
    assert set(payload["critic"]) == {"classification", "detection",
                                      "correction"}


def test_eval_output(workspace, tmp_path, capsys):
    out = str(tmp_path / "metrics.json")
    code, stdout, _ = run(capsys, "eval", "--dataset", workspace["ds"],
                          "--model", workspace["rank"], "--out", out,
                          "--limit", "2", "--candidates", "10", "--table")
    assert code == 0
    assert "CNP" in stdout
    payload = read_json(out)
    assert set(payload["methods"]) == {"fluency", "grounding_mean",
                                       "phrase_critic"}
    assert payload["num_scenes"] == 2


def test_outdir_env_var(workspace, tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "outputs"
    monkeypatch.setenv("PHRASECRITIC_OUTDIR", str(outdir))
    code, _, _ = run(capsys, "rank", "--dataset", workspace["ds"],
                     "--model", workspace["rank"],
                     "--out", "nested/expl.json",
                     "--limit", "1", "--candidates", "10")
    assert code == 0
    assert (outdir / "nested" / "expl.json").is_file()
    # absolute paths ignore the override
    absolute = tmp_path / "direct.json"
    code, _, _ = run(capsys, "rank", "--dataset", workspace["ds"],
                     "--model", workspace["rank"], "--out", str(absolute),
                     "--limit", "1", "--candidates", "10")
    assert code == 0
    assert absolute.is_file()


# -- parsing -------------------------------------------------------------------

def test_config_defaults_come_from_the_dataclasses():
    parser = build_parser()
    assert _from_args(WorldConfig, parser.parse_args(
        ["synth", "--out", "x"])) == WorldConfig()
    assert _from_args(CriticHyper, parser.parse_args(
        ["train", "--dataset", "d", "--out", "m"])) == CriticHyper()


@pytest.mark.parametrize("command, flag, value, field", [
    ("synth", "--classes", 3, "num_classes"),
    ("synth", "--scenes-per-class", 7, "scenes_per_class"),
    ("synth", "--sentences-per-scene", 4, "sentences_per_scene"),
    ("synth", "--foils-per-scene", 2, "foils_per_scene"),
    ("synth", "--colors", 10, "colors"),
    ("synth", "--sizes", 3, "sizes"),
    ("synth", "--patterns", 5, "patterns"),
    ("synth", "--noise", 0.4, "noise"),
    ("synth", "--sigma", 0.3, "sigma"),
    ("synth", "--feature-noise", 0.2, "feature_noise"),
    ("train", "--epochs", 3, "epochs"),
    ("train", "--lr", 0.1, "lr"),
    ("train", "--batch-size", 16, "batch_size"),
    ("train", "--hidden-dim", 8, "hidden_dim"),
])
def test_config_flag_sets_its_field(command, flag, value, field):
    cls, argv = ((WorldConfig, ["synth"]) if command == "synth"
                 else (CriticHyper, ["train", "--dataset", "d"]))
    args = build_parser().parse_args(argv + ["--out", "x", flag, str(value)])
    assert _from_args(cls, args) == cls(**{field: value})


SERVE = ["--dataset", "d", "--model", "m", "--out", "o"]
SERVE_DEFAULTS = {"dataset": "d", "model": "m", "out": "o", "split": "test"}
SELECT_DEFAULTS = dict(SERVE_DEFAULTS, limit=None, candidates=100,
                       error_rate=0.3, threshold=DEFAULT_FLUENCY_THRESHOLD,
                       seed=0)


@pytest.mark.parametrize("command, expected", [
    ("rank", dict(SELECT_DEFAULTS, scene=None, emit_svg=None)),
    ("counterfactual", dict(SELECT_DEFAULTS, scene=None)),
    ("eval", dict(SELECT_DEFAULTS, table=False)),
    ("foil", dict(SERVE_DEFAULTS, tau=None, table=False)),
])
def test_shared_flags_parse_to_the_same_defaults(command, expected):
    args = vars(build_parser().parse_args([command] + SERVE))
    del args["func"]
    assert args == dict(expected, command=command)


# -- failure modes ----------------------------------------------------------------

def stderr_record(err):
    return json.loads(err.strip().splitlines()[-1])


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["train", "--objective", "triplet"])
    assert info.value.code == 2


def test_missing_dataset_exits_3(workspace, tmp_path, capsys):
    code, _, err = run(capsys, "rank", "--dataset",
                       str(tmp_path / "nope.json"),
                       "--model", workspace["rank"],
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_MISSING_FILE
    record = stderr_record(err)
    assert record["code"] == EXIT_MISSING_FILE
    assert record["error"] == "FileNotFoundError"
    assert "nope.json" in record["message"]


def test_corrupt_checkpoint_exits_4(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1, "kind": "mystery"}')
    code, _, err = run(capsys, "rank", "--dataset", workspace["ds"],
                       "--model", str(bad),
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CHECKPOINT
    assert stderr_record(err)["error"] == "CheckpointError"


@pytest.mark.parametrize("corrupt, expected", [
    (lambda p: p["hyper"].update(epochs=2.5), "2.5 is not an integer"),
    (lambda p: p["hyper"].update(margin="1"), "'1' is not a number"),
    (lambda p: p["hyper"].update(batch_size=True), "True is not an integer"),
    (lambda p: p.update(feature_dim=str(p["feature_dim"])),
     "is not an integer"),
    (lambda p: p.update(feature_dim=p["feature_dim"] + 0.7),
     ".7 is not an integer"),
    (lambda p: p["params"]["b_2"]["data"].__setitem__(0, "0.5"),
     "'0.5' is not a number"),
    (lambda p: p["params"]["b_2"]["data"].__setitem__(0, True),
     "True is not a number"),
    (lambda p: p.pop("objective"), "'objective'"),
    (lambda p: p.update(objective="foo"), "got 'foo'"),
    (lambda p: p.update(objective=["rank"]), "got ['rank']"),
], ids=["epochs-fraction", "margin-string", "batch_size-bool",
        "feature_dim-string", "feature_dim-fraction", "data-string",
        "data-bool", "objective-missing", "objective-unknown",
        "objective-list"])
def test_checkpoint_field_of_the_wrong_type_exits_4(workspace, tmp_path,
                                                    capsys, corrupt,
                                                    expected):
    """int(), float() and np.array would read each of these (feature_dim
    76.7 as 76); the checkpoint is read through the record codec instead.
    The objective has no default: a checkpoint without one is corrupt, not
    a rank critic, and one other than rank or binary is corrupt too, not a
    critic of the wrong kind (exit 5)."""
    payload = read_json(workspace["rank"])
    corrupt(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "rank", "--dataset", workspace["ds"],
                       "--model", str(bad), "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CHECKPOINT
    record = stderr_record(err)
    assert record["error"] == "CheckpointError"
    assert record["message"].startswith("corrupt checkpoint ")
    assert record["message"].endswith(expected)
    assert not (tmp_path / "x.json").exists()


def test_checkpoint_with_empty_vocab_exits_4(workspace, tmp_path, capsys):
    payload = read_json(workspace["rank"])
    payload["vocab"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "rank", "--dataset", workspace["ds"],
                       "--model", str(bad), "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CHECKPOINT
    record = stderr_record(err)
    assert record["error"] == "CheckpointError"
    assert "empty vocab" in record["message"]


def test_bad_config_exits_5(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "ds.json"),
                       "--colors", "1")
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["error"] == "ConfigurationError"


def test_unknown_scene_exits_5(workspace, tmp_path, capsys):
    code, _, err = run(capsys, "rank", "--dataset", workspace["ds"],
                       "--model", workspace["rank"],
                       "--out", str(tmp_path / "x.json"),
                       "--scene", "999999")
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["code"] == EXIT_BAD_CONFIG
    assert "999999" in record["message"]


@pytest.fixture(scope="module")
def foilless_ds(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("nofoil") / "ds.json")
    assert main(["synth", "--out", path, "--foils-per-scene", "0"]
                + SYNTH_FLAGS) == 0
    return path


def test_binary_training_without_foils_exits_5(foilless_ds, tmp_path,
                                               capsys):
    code, _, err = run(capsys, "train", "--dataset", foilless_ds,
                       "--out", str(tmp_path / "m.json"),
                       "--objective", "binary", "--epochs", "1")
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert "no training examples" in record["message"]


def test_foil_eval_without_foils_exits_5(workspace, foilless_ds, tmp_path,
                                         capsys):
    code, _, err = run(capsys, "foil", "--dataset", foilless_ds,
                       "--model", workspace["binary"],
                       "--out", str(tmp_path / "foil.json"))
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert "no foil sentences" in record["message"]


@pytest.mark.parametrize("flag, value", [
    ("--batch-size", "0"), ("--epochs", "0"), ("--hidden-dim", "0"),
    ("--lr", "-1"), ("--lr", "0"), ("--lr", "inf"),
])
def test_bad_hyper_exits_5(workspace, tmp_path, capsys, flag, value):
    code, _, err = run(capsys, "train", "--dataset", workspace["ds"],
                       "--out", str(tmp_path / "m.json"), flag, value)
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert flag[2:].replace("-", "_") in record["message"]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("objective", ["rank", "binary"])
def test_diverging_training_exits_6(workspace, tmp_path, objective):
    """A finite but huge learning rate overflows the critic's products;
    stderr holds the one error record and no numpy warning. In a
    subprocess, since pytest would capture the warnings."""
    src = str(Path(phrasecritic.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "phrasecritic.cli", "train",
         "--dataset", workspace["ds"], "--out", str(tmp_path / "m.json"),
         "--objective", objective, "--lr", "1e300", "--epochs", "5"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == EXIT_DIVERGED
    [line] = proc.stderr.splitlines()
    assert json.loads(line) == {"error": "TrainingDivergedError",
                                "message": "non-finite critic score "
                                           "encountered",
                                "code": EXIT_DIVERGED}
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, model", [
    ("foil", "rank"), ("rank", "binary"), ("counterfactual", "binary"),
    ("eval", "binary"),
])
def test_checkpoint_objective_mismatch_exits_5(workspace, tmp_path, capsys,
                                               command, model):
    code, _, err = run(capsys, command, "--dataset", workspace["ds"],
                       "--model", workspace[model],
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert "rank" in record["message"] and "binary" in record["message"]
    assert not (tmp_path / "x.json").exists()


@pytest.fixture(scope="module")
def other_lexicon_ds(tmp_path_factory):
    """Worlds whose lexicon differs from the workspace checkpoints': with
    the same feature width (9 colours, 3 sizes for 8 and 4) and with
    another width (5 colours)."""
    root = tmp_path_factory.mktemp("lexicon")
    paths = {}
    for kind, flags in (("same width", ["--colors", "9", "--sizes", "3"]),
                        ("other width", ["--colors", "5"])):
        paths[kind] = str(root / f"{kind.replace(' ', '_')}.json")
        assert main(["synth", "--out", paths[kind]] + flags
                    + SYNTH_FLAGS) == 0
    return paths


@pytest.mark.parametrize("command", ["rank", "counterfactual", "eval",
                                     "foil"])
@pytest.mark.parametrize("kind", ["same width", "other width"])
def test_checkpoint_of_another_lexicon_exits_5(workspace, other_lexicon_ds,
                                               tmp_path, capsys, command,
                                               kind):
    model = "binary" if command == "foil" else "rank"
    ds = other_lexicon_ds[kind]
    have = CriticModel.for_taxonomy(Dataset.load(workspace["ds"]).taxonomy)
    need = CriticModel.for_taxonomy(Dataset.load(ds).taxonomy)
    assert (have.feature_dim == need.feature_dim) == (kind == "same width")
    assert have.vocab != need.vocab
    got, expected = next((a, b) for a, b in zip(have.vocab, need.vocab)
                         if a != b)
    code, _, err = run(capsys, command, "--dataset", ds,
                       "--model", workspace[model],
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert record["message"] == (
        f"{workspace[model]} was trained on another lexicon: "
        f"{len(have.vocab)} tokens and feature width {have.feature_dim}, "
        f"the dataset has {len(need.vocab)} and {need.feature_dim}; "
        f"first differing token {got!r}, expected {expected!r}")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("key, value, expected", [
    ("scenes", None, "no 'scenes' field"),
    ("taxonomy", [], "'taxonomy' must be a dict, got list"),
])
def test_malformed_dataset_exits_5(workspace, tmp_path, capsys, key, value,
                                   expected):
    payload = read_json(workspace["ds"])
    if value is None:
        del payload[key]
    else:
        payload[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "rank", "--dataset", str(bad),
                       "--model", workspace["rank"],
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert expected in record["message"]


def _drop_scene_id(payload):
    del payload["scenes"][0]["id"]


def _int_tokens(payload):
    payload["sentences"][0]["tokens"] = 5


def _drop_kappa(payload):
    del payload["taxonomy"]["kappa"]


def _list_keypoints(payload):
    payload["scenes"][0]["keypoints"] = []


@pytest.mark.parametrize("corrupt, section", [
    (_drop_scene_id, "'scenes'"), (_int_tokens, "'sentences'"),
    (_drop_kappa, "'taxonomy'"), (_list_keypoints, "'scenes'"),
])
def test_malformed_nested_record_exits_5(workspace, tmp_path, capsys,
                                         corrupt, section):
    payload = read_json(workspace["ds"])
    corrupt(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "rank", "--dataset", str(bad),
                       "--model", workspace["rank"],
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert f"malformed dataset {section}" in record["message"]
    assert not (tmp_path / "x.json").exists()


def _orphan_sentence(payload):
    payload["sentences"][0]["scene_id"] = 99999


def _unknown_class(payload):
    payload["scenes"][0]["class"] = 50


def _unknown_part(payload):
    payload["scenes"][0]["regions"][0]["part"] = "tail"


def _foil_out_of_range(payload):
    next(s for s in payload["sentences"] if s["foil"])["foil"]["index"] = 99


def _foil_original_of_another_kind(payload):
    sentence = next(s for s in payload["sentences"] if s["foil"])
    # a part noun restoring an adjective, or an adjective restoring a noun
    index = sentence["foil"]["index"]
    is_part = sentence["tokens"][index] in payload["taxonomy"]["parts"]
    sentence["foil"]["original"] = "red" if is_part else "beak"


def _alias_like_an_adjective(payload):
    payload["taxonomy"]["aliases"]["red"] = "wing"


def _reversed_profiles(payload):
    payload["profiles"].reverse()


def _wing_region(payload):
    return next(r for r in payload["scenes"][0]["regions"]
                if r["part"] == "wing")


def _missing_region(payload):
    payload["scenes"][0]["regions"].remove(_wing_region(payload))


def _region_without_category(payload):
    del _wing_region(payload)["attrs"]["pattern"]


def _unknown_region_token(payload):
    _wing_region(payload)["attrs"]["color"] = "purple"


def _profile_without_part(payload):
    del payload["profiles"][1]["attributes"]["wing"]


def _profile_without_category(payload):
    del payload["profiles"][1]["attributes"]["wing"]["pattern"]


def _kappa_without_part(payload):
    del payload["taxonomy"]["kappa"]["wing"]


def _nan_kappa(payload):
    payload["taxonomy"]["kappa"]["wing"] = float("nan")


def _negative_kappa(payload):
    payload["taxonomy"]["kappa"]["wing"] = -1


def _zero_kappa(payload):
    payload["taxonomy"]["kappa"]["wing"] = 0


def _nan_noise_rate(payload):
    payload["profiles"][1]["noise_rate"] = float("nan")


def _infinite_noise_rate(payload):
    payload["profiles"][1]["noise_rate"] = float("inf")


def _negative_noise_rate(payload):
    payload["profiles"][1]["noise_rate"] = -1


def _huge_noise_rate(payload):
    payload["profiles"][1]["noise_rate"] = 10 ** 9


def _alias_of_a_non_part(payload):
    payload["taxonomy"]["aliases"]["bird"] = "tail"


def _part_listed_twice(payload):
    payload["taxonomy"]["parts"].append("wing")


def _nan_box(payload):
    _wing_region(payload)["box"] = [0.1, float("nan"), 0.3, 0.4]


def _three_value_box(payload):
    _wing_region(payload)["box"] = [0.1, 0.2, 0.3]


def _nan_keypoint(payload):
    payload["scenes"][0]["keypoints"]["wing"] = [float("nan"), 0.5]


def _nan_profile_name(payload):
    payload["profiles"][1]["name"] = float("nan")


def _list_token(payload):
    payload["sentences"][0]["tokens"][1] = ["is"]


def _number_token(payload):
    payload["sentences"][0]["tokens"][0] = 7


def _dict_foil_original(payload):
    _first_foil(payload)["original"] = {}


def _list_split(payload):
    payload["scenes"][0]["split"] = ["train"]


def _unknown_split(payload):
    payload["scenes"][0]["split"] = "zz"


def _missing_keypoint(payload):
    del payload["scenes"][0]["keypoints"]["wing"]


def _negative_grounder_seed(payload):
    payload["grounder"]["seed"] = -1


def _keep_parts(payload, parts):
    """Drop every other part from the taxonomy, scenes and profiles."""
    taxonomy = payload["taxonomy"]
    taxonomy["parts"] = [p for p in taxonomy["parts"] if p in parts]
    taxonomy["kappa"] = {p: taxonomy["kappa"][p] for p in parts}
    taxonomy["aliases"] = {noun: part for noun, part
                           in taxonomy["aliases"].items() if part in parts}
    for scene in payload["scenes"]:
        scene["regions"] = [r for r in scene["regions"] if r["part"] in parts]
        scene["keypoints"] = {p: scene["keypoints"][p] for p in parts}
    for profile in payload["profiles"]:
        profile["attributes"] = {p: profile["attributes"][p] for p in parts}


def _no_body(payload):
    _keep_parts(payload, [p for p in payload["taxonomy"]["parts"]
                          if p != "body"])


def _two_parts_besides_body(payload):
    _keep_parts(payload, ["beak", "head", "body"])


def _list_region_token(payload):
    _wing_region(payload)["attrs"]["color"] = ["red"]


def _dict_profile_token(payload):
    payload["profiles"][1]["attributes"]["wing"]["size"] = {}


def _two_wing_regions(payload):
    """A second wing region of another colour: region_for would read the
    first, Scene.assignment the second."""
    wing = _wing_region(payload)
    other = next(c for c in payload["taxonomy"]["categories"]["color"]
                 if c != wing["attrs"]["color"])
    payload["scenes"][0]["regions"].append(
        dict(wing, attrs=dict(wing["attrs"], color=other)))


@pytest.mark.parametrize("corrupt, expected", [
    (_orphan_sentence, "sentence 0 names scene 99999"),
    (_unknown_class, "scene 0 has class 50"),
    (_unknown_part, "scene 0 has a region for 'tail'"),
    (_foil_out_of_range, "foil index 99"),
    (_foil_original_of_another_kind, "whose lexicon entry is not that of"),
    (_alias_like_an_adjective,
     "part nouns ['red'] are also attribute tokens"),
    (_reversed_profiles, "profile 0 has class_id 2"),
    (_missing_region, "scene 0 has no region for 'wing'"),
    (_region_without_category,
     "scene 0 region 'wing' has no 'pattern' attribute"),
    (_unknown_region_token, "scene 0 region 'wing' has color 'purple', "
                            "which is not a taxonomy color token"),
    (_profile_without_part, "profile 1 has no attributes for 'wing'"),
    (_profile_without_category,
     "profile 1 part 'wing' has no 'pattern' attribute"),
    (_kappa_without_part,
     "taxonomy kappa for part 'wing' must be a finite number, got None"),
    (_nan_kappa,
     "taxonomy kappa for part 'wing' must be a finite number, got nan"),
    (_negative_kappa,
     "taxonomy kappa for part 'wing' must be finite and > 0, got -1.0"),
    (_zero_kappa,
     "taxonomy kappa for part 'wing' must be finite and > 0, got 0.0"),
    (_nan_noise_rate,
     "dataset profile 1 noise_rate must be finite and >= 0, got nan"),
    (_infinite_noise_rate,
     "dataset profile 1 noise_rate must be finite and >= 0, got inf"),
    (_negative_noise_rate,
     "dataset profile 1 noise_rate must be finite and >= 0, got -1.0"),
    (_huge_noise_rate,
     "dataset profile 1 noise_rate must be <= 1, got 1000000000.0"),
    (_alias_of_a_non_part,
     "taxonomy alias 'bird' maps to 'tail', which is not a taxonomy part"),
    (_part_listed_twice, "taxonomy lists part 'wing' twice"),
    (_nan_box, "scene 0 region 'wing' has box [0.1, nan, 0.3, 0.4], which "
               "is not 4 finite numbers"),
    (_three_value_box, "scene 0 region 'wing' has box [0.1, 0.2, 0.3], "
                       "which is not 4 finite numbers"),
    (_nan_keypoint, "scene 0 keypoint 'wing' is [nan, 0.5], which is not 2 "
                    "finite numbers"),
    (_nan_profile_name, "profile 1 has name nan, which is not a string"),
    (_list_token, "sentence 0 has token ['is'], which is not a string"),
    (_number_token, "sentence 0 has token 7, which is not a string"),
    (_dict_foil_original, "has foil original {}, which is not a string"),
    (_list_split, "scene 0 has split ['train'], which is not a string"),
    (_unknown_split, "scene 0 has split 'zz', which is not one of "
                     "('train', 'val', 'test')"),
    (_missing_keypoint, "scene 0 has no keypoint for 'wing'"),
    (_negative_grounder_seed, "seed must be >= 0, got -1"),
    (_no_body, "taxonomy has no 'body' part"),
    (_two_parts_besides_body, "taxonomy has 2 parts besides 'body'; the "
                              "sentence frames mention up to 3"),
    (_list_region_token, "scene 0 region 'wing' has color ['red'], which is "
                         "not a taxonomy color token"),
    (_dict_profile_token, "profile 1 part 'wing' has size {}, which is not a "
                          "taxonomy size token"),
    (_two_wing_regions, "scene 0 has two regions for 'wing'"),
])
def test_dangling_reference_exits_5(workspace, tmp_path, capsys, corrupt,
                                    expected):
    payload = read_json(workspace["ds"])
    corrupt(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    for argv in (["rank", "--model", workspace["rank"]],
                 ["train", "--objective", "binary"]):
        code, _, err = run(capsys, *argv, "--dataset", str(bad),
                           "--out", str(tmp_path / "x.json"))
        assert code == EXIT_BAD_CONFIG
        record = stderr_record(err)
        assert record["error"] == "ConfigurationError"
        assert expected in record["message"]
        assert not (tmp_path / "x.json").exists()


def _first_foil(payload):
    return next(s for s in payload["sentences"] if s["foil"])["foil"]


@pytest.mark.parametrize("record, key, section", [
    (lambda p: p["profiles"][0], "class_id", "profiles"),
    (lambda p: p["scenes"][0], "id", "scenes"),
    (lambda p: p["scenes"][0], "class", "scenes"),
    (lambda p: p["sentences"][0], "scene_id", "sentences"),
    (_first_foil, "index", "sentences"),
    (lambda p: p["grounder"], "seed", "grounder"),
], ids=["profile-class_id", "scene-id", "scene-class", "sentence-scene_id",
        "foil-index", "grounder-seed"])
def test_infinite_integer_field_exits_5(workspace, tmp_path, capsys, record,
                                        key, section):
    payload = read_json(workspace["ds"])
    record(payload)[key] = float("inf")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "rank", "--dataset", str(bad),
                       "--model", workspace["rank"],
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"].startswith(
        f"malformed dataset {section!r}: OverflowError")


@pytest.mark.parametrize("record, key, value, section", [
    (lambda p: p["scenes"][0], "class", 1.5, "scenes"),
    (lambda p: p["scenes"][0], "class", True, "scenes"),
    (lambda p: p["scenes"][0], "id", 0.7, "scenes"),
    (lambda p: p["sentences"][0], "scene_id", 0.2, "sentences"),
    (lambda p: p["profiles"][0], "class_id", 0.4, "profiles"),
    (lambda p: p["grounder"], "seed", 2.9, "grounder"),
    (lambda p: p, "seed", True, "seed"),
], ids=["scene-class-fraction", "scene-class-bool", "scene-id",
        "sentence-scene_id", "profile-class_id", "grounder-seed",
        "dataset-seed"])
def test_non_integer_integer_field_exits_5(workspace, tmp_path, capsys,
                                           record, key, value, section):
    """int() would truncate these (grounder seed 2.9 to 2, class true to
    1); they are rejected instead."""
    payload = read_json(workspace["ds"])
    record(payload)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "rank", "--dataset", str(bad),
                       "--model", workspace["rank"],
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == (
        f"malformed dataset {section!r}: TypeError: {value!r} is not an "
        f"integer")


@pytest.mark.parametrize("record, key, value, section", [
    (lambda p: p["scenes"][0]["regions"][0]["box"], 0, "0.1", "scenes"),
    (lambda p: p["scenes"][0]["regions"][0]["box"], 1, True, "scenes"),
    (lambda p: p["grounder"], "sigma", "0.05", "grounder"),
    (lambda p: p["grounder"], "feature_noise", False, "grounder"),
], ids=["box-string", "box-bool", "grounder-sigma", "grounder-feature_noise"])
def test_non_number_float_field_exits_5(workspace, tmp_path, capsys, record,
                                        key, value, section):
    """float() would read these (a box's "0.1" as 0.1, true as 1.0); they
    are rejected instead."""
    payload = read_json(workspace["ds"])
    record(payload)[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "rank", "--dataset", str(bad),
                       "--model", workspace["rank"],
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == (
        f"malformed dataset {section!r}: TypeError: {value!r} is not a "
        f"number")


@pytest.mark.parametrize("command", ["rank", "counterfactual", "eval"])
@pytest.mark.parametrize("flag, value, expected", [
    ("--limit", "-2", "--limit must be >= 0, got -2"),
    ("--split", "nosuch", "no scenes in split 'nosuch'"),
    ("--candidates", "0", "--candidates must be >= 1, got 0"),
    ("--candidates", "-3", "--candidates must be >= 1, got -3"),
])
def test_bad_selection_exits_5(workspace, tmp_path, capsys, command, flag,
                               value, expected):
    code, _, err = run(capsys, command, "--dataset", workspace["ds"],
                       "--model", workspace["rank"],
                       "--out", str(tmp_path / "x.json"), flag, value)
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == expected
    assert not (tmp_path / "x.json").exists()


def test_negative_svg_limit_exits_5(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "ds.json"),
                       "--emit-svg", str(tmp_path / "svg"),
                       "--svg-limit", "-1", *SYNTH_FLAGS)
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == "--svg-limit must be >= 0, got -1"
    assert not (tmp_path / "ds.json").exists()
    assert not (tmp_path / "svg").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_pair_sentences_below_one_exits_5(workspace, tmp_path, capsys,
                                          value):
    code, _, err = run(capsys, "train", "--dataset", workspace["ds"],
                       "--out", str(tmp_path / "m.json"),
                       "--pair-sentences", value)
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == \
        f"--pair-sentences must be >= 1, got {value}"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_pairs_per_scene_below_one_exits_5(workspace, tmp_path, capsys,
                                           value):
    code, _, err = run(capsys, "train", "--dataset", workspace["ds"],
                       "--out", str(tmp_path / "m.json"),
                       "--pairs-per-scene", value)
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == \
        f"--pairs-per-scene must be >= 1, got {value}"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flag, value, expected", [
    ("--sigma", "nan", "sigma must be finite and >= 0, got nan"),
    ("--sigma", "inf", "sigma must be finite and >= 0, got inf"),
    ("--sigma", "-1", "sigma must be finite and >= 0, got -1.0"),
    ("--feature-noise", "nan",
     "feature_noise must be finite and >= 0, got nan"),
    ("--feature-noise", "inf",
     "feature_noise must be finite and >= 0, got inf"),
    ("--feature-noise", "1.5", "feature_noise must be <= 1, got 1.5"),
    ("--seed", "-1", "seed must be >= 0, got -1"),
])
def test_non_finite_synth_noise_exits_5(tmp_path, capsys, flag, value,
                                        expected):
    # flag comes last, so it overrides SYNTH_FLAGS' --seed
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "ds.json"),
                       *SYNTH_FLAGS, flag, value)
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert record["message"] == expected
    assert not (tmp_path / "ds.json").exists()


@pytest.mark.parametrize("field", ["sigma", "feature_noise"])
def test_non_finite_dataset_noise_exits_5(workspace, tmp_path, capsys, field):
    payload = read_json(workspace["ds"])
    payload["grounder"][field] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run(capsys, "train", "--dataset", str(bad),
                       "--out", str(tmp_path / "m.json"))
    assert code == EXIT_BAD_CONFIG
    record = stderr_record(err)
    assert record["error"] == "ConfigurationError"
    assert f"{field} must be finite and >= 0, got nan" in record["message"]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag, model", [
    ("rank", "--threshold", "rank"),
    ("counterfactual", "--threshold", "rank"),
    ("eval", "--threshold", "rank"),
    ("foil", "--tau", "binary"),
])
def test_non_finite_threshold_exits_5(workspace, tmp_path, capsys, command,
                                      flag, model, value):
    code, _, err = run(capsys, command, "--dataset", workspace["ds"],
                       "--model", workspace[model],
                       "--out", str(tmp_path / "x.json"), f"{flag}={value}")
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == \
        f"{flag} must be finite, got {float(value)}"
    assert not (tmp_path / "x.json").exists()


def _no_load(path):
    raise AssertionError(f"{path} was loaded")


OUT_PATH_CASES = [
    ("train", "--out"), ("train", "--pairs-out"), ("train", "--report-out"),
    ("synth", "--out"), ("rank", "--out"), ("counterfactual", "--out"),
    ("eval", "--out"), ("foil", "--out"),
]


def _out_argv(workspace, tmp_path, command, flag, path):
    """command's argv with flag set to path; --out, if that is another
    flag, goes to tmp_path / "m.json"."""
    if command == "synth":
        argv = ["synth"] + SYNTH_FLAGS
    elif command == "train":
        argv = ["train", "--dataset", workspace["ds"], "--epochs", "1"]
    else:
        argv = [command, "--dataset", workspace["ds"], "--model",
                workspace["binary" if command == "foil" else "rank"]]
    if flag != "--out":
        argv += ["--out", str(tmp_path / "m.json")]
    return argv + [flag, str(path)]


@pytest.mark.parametrize("command, flag", OUT_PATH_CASES)
def test_out_path_that_is_a_directory_exits_5(workspace, tmp_path, capsys,
                                              monkeypatch, command, flag):
    """Rejected before the dataset is loaded or generated: a call that got
    that far would fail with exit 1 on the stubs."""
    monkeypatch.setattr("phrasecritic.cli._load_dataset", _no_load)
    monkeypatch.setattr("phrasecritic.cli.generate_dataset", _no_load)
    target = tmp_path / "sub" / "taken"
    target.mkdir(parents=True)
    argv = _out_argv(workspace, tmp_path, command, flag, target)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == \
        f"output path {target} is a directory"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["sub", "taken"]


@pytest.mark.parametrize("command, flag", OUT_PATH_CASES)
def test_out_path_under_a_file_exits_5(workspace, tmp_path, capsys,
                                       monkeypatch, command, flag):
    monkeypatch.setattr("phrasecritic.cli._load_dataset", _no_load)
    monkeypatch.setattr("phrasecritic.cli.generate_dataset", _no_load)
    (tmp_path / "plain").write_text("not a directory\n")
    target = tmp_path / "plain" / "sub" / "x.json"
    argv = _out_argv(workspace, tmp_path, command, flag, target)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_BAD_CONFIG
    assert stderr_record(err)["message"] == \
        f"a file blocks the output path {target}"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["plain"]
    assert (tmp_path / "plain").read_text() == "not a directory\n"
