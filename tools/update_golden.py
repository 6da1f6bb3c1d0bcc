"""Rewrite tests/golden/digests.json, the SHA-256 of every CLI artifact.

    PYTHONPATH=src python3 tools/update_golden.py

Runs the whole pipeline in-process through cli.main on each world of
WORLDS (6 classes x 20 scenes, seed 3, 2 foils per scene, plus the world's
synth flags): synth with every scene's SVG, rank training (10 epochs, a
third of the default, to keep the test short) with --pairs-out and
--report-out, binary training (batch 16, hidden 16) with --report-out,
rank with its SVGs, counterfactual, eval and foil. An SVG directory counts
as the digest of its sorted (name, digest) list. The manifest also records
the Python and numpy versions it was made with, since float formatting or
numpy's random streams may differ on others.

tests/test_golden.py rebuilds the digests and names each artifact that
differs. A change that moves an artifact on purpose reruns this script and
says in CHANGES.md which artifacts moved and why.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from phrasecritic.cli import main  # noqa: E402
from phrasecritic.jsonio import write_json  # noqa: E402

MANIFEST = ROOT / "tests" / "golden" / "digests.json"
SEED = "3"
WORLDS = {
    "default": [],
    "noisy": ["--noise", "0.4", "--feature-noise", "0.2"],
}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _digest(path: Path) -> str:
    if path.is_dir():
        listing = sorted((p.name, _digest(p)) for p in path.iterdir())
        return hashlib.sha256(json.dumps(listing).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def world_digests(out: Path, synth_flags) -> dict:
    """Run the pipeline on one world into out (absolute paths, so
    PHRASECRITIC_OUTDIR does not move them); each artifact's digest."""
    p = {name: str(out / f"{name}.json") for name in (
        "dataset", "pairs", "critic", "train_report", "foil_critic",
        "foil_train_report", "ranked", "counterfactuals", "metrics",
        "foil_report")}
    serve = ["--dataset", p["dataset"], "--model", p["critic"], "--seed",
             SEED]
    calls = [
        ["synth", "--out", p["dataset"], "--seed", SEED, "--classes", "6",
         "--scenes-per-class", "20", "--foils-per-scene", "2",
         "--emit-svg", str(out / "synth_svg"), "--svg-limit", "1000",
         *synth_flags],
        ["train", "--dataset", p["dataset"], "--objective", "rank",
         "--seed", SEED, "--epochs", "10", "--out", p["critic"],
         "--pairs-out", p["pairs"], "--report-out", p["train_report"]],
        ["train", "--dataset", p["dataset"], "--objective", "binary",
         "--seed", SEED, "--batch-size", "16", "--hidden-dim", "16",
         "--out", p["foil_critic"], "--report-out", p["foil_train_report"]],
        ["rank", *serve, "--out", p["ranked"],
         "--emit-svg", str(out / "rank_svg")],
        ["counterfactual", *serve, "--out", p["counterfactuals"]],
        ["eval", *serve, "--out", p["metrics"]],
        ["foil", "--dataset", p["dataset"], "--model", p["foil_critic"],
         "--out", p["foil_report"]],
    ]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")
    names = [*p, "synth_svg", "rank_svg"]
    return {name: _digest(out / (name if name.endswith("svg")
                                 else f"{name}.json"))
            for name in names}


def build_manifest() -> dict:
    """The versions and every world's artifact digests."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for world, flags in WORLDS.items():
            out = Path(tmp) / world
            out.mkdir()
            digests[world] = world_digests(out, flags)
    return {"versions": versions(), "digests": digests}


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    write_json(MANIFEST, build_manifest())
    print(f"wrote {MANIFEST}")
