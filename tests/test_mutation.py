"""Malformed input, mutated leaf by leaf, ends in a documented exit.

A tiny world's dataset and a small rank checkpoint are mutated at one leaf
at a time with ten values (NaN, inf, null, "zz", -1, 10^9, [], {}, true,
and deletion). Each mutated dataset must load or raise ConfigurationError,
each mutated checkpoint must load or raise CheckpointError, and a fixed
sample of the datasets that load goes through the CLI, where every exit
code must be documented (0, 2, 3, 4, 5) and every output strict JSON.

A dataset leaf is mutated at two representative paths per pattern (list
indices wildcarded): in the first and in the last element of each list.
The first scene is a train scene and the first sentence one of its true
sentences, which training and the class language models read; the last
scene is a test scene and the last sentence its foil, which the commands
that read the test split meet. A checkpoint is mutated at every leaf,
and no 10^9 size may reach a critic's constructor: the loader checks the
sizes against the data first.
"""

import json
import math

import pytest

from phrasecritic.cli import main
from phrasecritic.critic import (CriticHyper, CriticModel, load_checkpoint,
                                 save_checkpoint)
from phrasecritic.errors import CheckpointError, ConfigurationError
from phrasecritic.worldsim import Dataset, WorldConfig, generate_dataset

MUTATIONS = {
    "nan": math.nan, "inf": math.inf, "null": None, "zz": "zz", "-1": -1,
    "1e9": 10 ** 9, "list": [], "dict": {}, "true": True,
}
DELETE = "delete"

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

# every CLI_SAMPLE-th dataset that loads goes through the six commands; 59
# of the 1190 mutated datasets load (a float field rejects true, a kappa
# must be > 0 and a noise_rate in [0, 1]), so every second gives 30, above
# the 25 of the check below
CLI_SAMPLE = 2


def leaf_paths(obj, path=()):
    """Every path from obj to a scalar, as a tuple of keys and indices."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    paths = [p for key, value in items
             for p in leaf_paths(value, path + (key,))]
    return paths or [path]


def representatives(paths):
    """The first and the last path of each pattern (indices as "*"), which
    lie in the first and in the last element of every list on the way."""
    first, last = {}, {}
    for path in paths:
        pattern = tuple("*" if isinstance(k, int) else k for k in path)
        first.setdefault(pattern, path)
        last[pattern] = path
    return list(dict.fromkeys([*first.values(), *last.values()]))


def mutated(text: str, path, mutation: str):
    """A fresh copy of the JSON text with one leaf replaced or deleted."""
    obj = json.loads(text)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if mutation == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = MUTATIONS[mutation]
    return obj


def cases(paths):
    return [(path, m) for path in paths for m in (*MUTATIONS, DELETE)]


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def world():
    config = WorldConfig(num_classes=3, scenes_per_class=6,
                         sentences_per_scene=2, foils_per_scene=1)
    return json.dumps(generate_dataset(config, seed=0).to_json())


def test_representatives_reach_both_ends_of_each_split(world):
    obj = json.loads(world)
    paths = representatives(leaf_paths(obj))
    first, last = obj["scenes"][0], obj["scenes"][-1]
    assert (first["split"], last["split"]) == ("train", "test")
    assert obj["sentences"][0]["scene_id"] == first["id"]
    assert obj["sentences"][0]["foil"] is None
    assert obj["sentences"][-1]["scene_id"] == last["id"]
    assert obj["sentences"][-1]["foil"] is not None
    for scene in (0, len(obj["scenes"]) - 1):
        assert ("scenes", scene, "split") in paths


@pytest.fixture(scope="module")
def load_outcomes(world):
    """(path, mutation, whether it loaded) of every mutated dataset, and
    what escaped other than ConfigurationError."""
    outcomes, escaped = [], []
    for path, mutation in cases(representatives(leaf_paths(
            json.loads(world)))):
        try:
            Dataset.from_json(mutated(world, path, mutation))
            outcomes.append((path, mutation, True))
        except ConfigurationError:
            outcomes.append((path, mutation, False))
        except Exception as exc:
            escaped.append(f"{path} -> {mutation}: {type(exc).__name__}: "
                           f"{exc}")
    return outcomes, escaped


def test_every_mutated_dataset_loads_or_exits_5(load_outcomes):
    outcomes, escaped = load_outcomes
    assert not escaped, "\n".join(escaped)
    loaded = sum(ok for _, _, ok in outcomes)
    # most mutations are rejected, but some leave a valid dataset
    assert len(outcomes) > 1000
    assert 0 < loaded < len(outcomes) / 4


@pytest.fixture(scope="module")
def critics(world, tmp_path_factory):
    """One-epoch rank and binary critics of the unmutated world."""
    root = tmp_path_factory.mktemp("mutation")
    ds = root / "ds.json"
    ds.write_text(world)
    paths = {"rank": str(root / "rank.json"),
             "binary": str(root / "binary.json")}
    for objective, out in paths.items():
        assert main(["train", "--dataset", str(ds), "--out", out,
                     "--objective", objective, "--epochs", "1",
                     "--pairs-per-scene", "2"]) == 0
    return paths


def commands(ds, critics, out):
    """The six commands, each as (argv, the JSON files it writes)."""
    serve = ["--dataset", ds, "--candidates", "10"]
    return [
        (["rank", *serve, "--model", critics["rank"], "--out", out], [out]),
        (["counterfactual", *serve, "--model", critics["rank"],
          "--out", out], [out]),
        (["eval", *serve, "--model", critics["rank"], "--out", out], [out]),
        (["foil", "--dataset", ds, "--model", critics["binary"],
          "--out", out], [out]),
        *((["train", "--dataset", ds, "--objective", objective,
            "--epochs", "1", "--pairs-per-scene", "2", "--out", out,
            "--report-out", out + ".report"], [out, out + ".report"])
          for objective in ("rank", "binary")),
    ]


def test_loaded_mutations_exit_documented_codes(world, load_outcomes,
                                                critics, tmp_path, capsys):
    loaded = [(path, mutation) for path, mutation, ok in load_outcomes[0]
              if ok]
    sample = loaded[::CLI_SAMPLE]
    assert len(sample) >= 25
    failures = []
    for n, (path, mutation) in enumerate(sample):
        ds = tmp_path / f"ds{n}.json"
        ds.write_text(json.dumps(mutated(world, path, mutation)))
        for argv, outputs in commands(str(ds), critics,
                                      str(tmp_path / f"out{n}.json")):
            code = main(argv)
            capsys.readouterr()
            case = f"{path} -> {mutation}: {argv[0]}"
            if code not in DOCUMENTED_EXITS:
                failures.append(f"{case} exited {code}")
            for output in outputs if code == 0 else ():
                try:
                    strict_json(output)
                except ValueError as exc:
                    failures.append(f"{case} wrote {output}: {exc}")
    assert not failures, "\n".join(failures)


@pytest.fixture(scope="module")
def checkpoint(world, tmp_path_factory):
    """A rank checkpoint of the world with one-unit layers, as JSON text."""
    taxonomy = Dataset.from_json(json.loads(world)).taxonomy
    hyper = CriticHyper(embed_dim=1, input_dim=1, hidden_dim=1, head_dim=1)
    path = tmp_path_factory.mktemp("checkpoint") / "rank.json"
    save_checkpoint(CriticModel.for_taxonomy(taxonomy, hyper), path)
    return path.read_text()


def test_every_mutated_checkpoint_loads_or_exits_4(checkpoint, tmp_path,
                                                   monkeypatch):
    build = CriticModel.__init__

    def build_small(self, vocab, feature_dim, hyper, *args, **kwargs):
        # a loader that built a critic before checking its sizes would
        # allocate the 10^9 ones: refuse those instead
        sizes = [feature_dim] + [getattr(hyper, name) for name in (
            "embed_dim", "input_dim", "hidden_dim", "head_dim")]
        if any(isinstance(n, (int, float)) and n > 10 ** 6 for n in sizes):
            raise AssertionError(f"a critic of sizes {sizes} was built")
        build(self, vocab, feature_dim, hyper, *args, **kwargs)

    monkeypatch.setattr(CriticModel, "__init__", build_small)
    paths = leaf_paths(json.loads(checkpoint))
    assert len(paths) > 150
    bad = tmp_path / "bad.json"
    rejected, escaped = 0, []
    for path, mutation in cases(paths):
        bad.write_text(json.dumps(mutated(checkpoint, path, mutation)))
        try:
            load_checkpoint(bad)
        except CheckpointError:
            rejected += 1
        except Exception as exc:
            escaped.append(f"{path} -> {mutation}: {type(exc).__name__}: "
                           f"{exc}")
    assert not escaped, "\n".join(escaped)
    assert 0 < rejected < len(cases(paths))
