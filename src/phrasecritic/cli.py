"""Command line front end for the explanation pipeline.

Subcommands cover the full workflow: synth (build a dataset), train (fit
a ranking or binary critic), rank (select explanations for scenes),
counterfactual (evidence against the nearest other class), foil
(classification / detection / correction evaluation), and eval (compare
selection strategies).

Failures print a one-line JSON record to stderr and exit with a stable
code: 2 for usage errors, 3 for missing files, 4 for unreadable
checkpoints, 5 for invalid configuration or data, 6 when training
diverges (a non-finite loss or score), 1 otherwise. Relative
output paths are resolved against PHRASECRITIC_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from itertools import zip_longest

import numpy as np

from . import explain, foil, generation, metrics, negatives, render, textproc
from .critic import (CriticHyper, CriticModel, load_checkpoint,
                     save_checkpoint, train_ranker)
from .errors import (CheckpointError, ConfigurationError, GenerationError,
                     TrainingDivergedError)
from .jsonio import write_json
from .worldsim import Dataset, WorldConfig, generate_dataset

EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_CHECKPOINT = 4
EXIT_BAD_CONFIG = 5
EXIT_DIVERGED = 6


def _resolve_out(path: str, directory: bool = False) -> str:
    """The path, its directory made; ValueError if a dir or file blocks it."""
    path = os.path.join(os.environ.get("PHRASECRITIC_OUTDIR", ""), path)
    if os.path.isdir(path) and not directory:
        raise ValueError(f"output path {path} is a directory")
    try:
        os.makedirs(path if directory else os.path.dirname(path) or ".",
                    exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValueError(f"a file blocks the output path {path}") from exc
    return path


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    return path


def _load_dataset(path: str) -> Dataset:
    return Dataset.load(_require_file(path))


def _load_model(path: str, objective: str, dataset: Dataset) -> CriticModel:
    """The checkpoint, which must hold an objective critic built for the
    dataset's lexicon: same vocabulary and feature width (exit 5)."""
    model = load_checkpoint(_require_file(path))
    if model.objective != objective:
        raise ConfigurationError(
            f"{path} holds a {model.objective} critic, but this command "
            f"needs a {objective} critic")
    want = CriticModel.for_taxonomy(dataset.taxonomy)
    if (model.vocab, model.feature_dim) != (want.vocab, want.feature_dim):
        got, need = next((pair for pair in zip_longest(model.vocab, want.vocab)
                          if pair[0] != pair[1]), (None, None))
        raise ConfigurationError(
            f"{path} was trained on another lexicon: {len(model.vocab)} "
            f"tokens and feature width {model.feature_dim}, the dataset "
            f"has {len(want.vocab)} and {want.feature_dim}; first differing "
            f"token {got!r}, expected {need!r}")
    return model


def _require_at_least(flag: str, value, low: int) -> None:
    """Reject a count flag below low (exit 5); a slice or a pool would
    otherwise take it silently."""
    if value is not None and value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _require_finite(flag: str, value) -> None:
    """Reject a NaN or infinite float flag, which JSON cannot hold (exit 5)."""
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {value}")


def _select_scenes(dataset: Dataset, args):
    """The --scene ids, or else the --split scenes, cut to --limit.

    A negative --limit, --candidates below 1, a non-finite --threshold, an
    unknown scene id or an empty split raises ValueError (exit 5).
    """
    _require_at_least("--limit", args.limit, 0)
    _require_at_least("--candidates", args.candidates, 1)
    _require_finite("--threshold", args.threshold)
    if getattr(args, "scene", None):
        by_id = {s.scene_id: s for s in dataset.scenes}
        missing = [i for i in args.scene if i not in by_id]
        if missing:
            raise ValueError(f"unknown scene ids: {missing}")
        scenes = [by_id[i] for i in args.scene]
    else:
        scenes = dataset.scenes_in_split(args.split)
        if not scenes:
            raise ValueError(f"no scenes in split {args.split!r}")
    return scenes[:args.limit]


def _from_args(cls, args):
    """A cls instance from the fields the command line set; the dataclass
    holds every default."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                  if getattr(args, f.name, None) is not None})


def _emit_scene_svgs(directory: str, items) -> None:
    for scene, highlight in items:
        path = os.path.join(directory, f"scene_{scene.scene_id:05d}.svg")
        render.write_svg(path, scene, highlight)


# -- subcommands -------------------------------------------------------------

def cmd_synth(args) -> int:
    _require_at_least("--svg-limit", args.svg_limit, 0)
    out = _resolve_out(args.out)
    svg_dir = args.emit_svg and _resolve_out(args.emit_svg, directory=True)
    dataset = generate_dataset(_from_args(WorldConfig, args), args.seed)
    dataset.save(out)
    if svg_dir:
        _emit_scene_svgs(svg_dir,
                         [(s, ()) for s in dataset.scenes[:args.svg_limit]])
    print(f"wrote {len(dataset.scenes)} scenes, "
          f"{len(dataset.sentences)} sentences to {out}")
    return 0


def cmd_train(args) -> int:
    _require_at_least("--pair-sentences", args.pair_sentences, 1)
    _require_at_least("--pairs-per-scene", args.pairs_per_scene, 1)
    out, pairs_out, report_out = (path and _resolve_out(path) for path in (
        args.out, args.pairs_out, args.report_out))
    dataset = _load_dataset(args.dataset)
    hyper = _from_args(CriticHyper, args)
    if args.objective == "rank":
        pairs = negatives.build_rank_pairs(
            dataset, k=args.pairs_per_scene, seed=args.seed,
            sentences_per_scene=args.pair_sentences)
        grouped = negatives.ground_rank_pairs(dataset, pairs)
        model = CriticModel.for_taxonomy(dataset.taxonomy, hyper, args.seed,
                                         objective="rank")
        report = train_ranker(model, grouped.get("train", []),
                              grouped.get("val"), seed=args.seed)
        if pairs_out:
            write_json(pairs_out, negatives.pairs_to_json(pairs))
    else:
        model, report = foil.train_foil_classifier(dataset, hyper, args.seed)
    save_checkpoint(model, out)
    if report_out:
        write_json(report_out, report.to_json())
    final_val = report.val_metric[-1] if report.val_metric else float("nan")
    print(f"trained {args.objective} critic for {report.epochs} epochs, "
          f"final loss {report.final_train_loss:.4f}, "
          f"val metric {final_val:.4f}, saved to {out}")
    return 0


def cmd_rank(args) -> int:
    out = _resolve_out(args.out)
    svg_dir = args.emit_svg and _resolve_out(args.emit_svg, directory=True)
    dataset = _load_dataset(args.dataset)
    model = _load_model(args.model, "rank", dataset)
    lms = generation.fit_class_lms(dataset)
    scenes = _select_scenes(dataset, args)
    records = []
    svg_items = []
    for scene in scenes:
        candidates = explain.candidate_pool(
            dataset, lms, scene, args.candidates, args.error_rate,
            np.random.default_rng([args.seed, 7, scene.scene_id]))
        explanation = explain.select_explanation(
            candidates, scene, model, dataset.taxonomy, dataset.grounder,
            args.threshold)
        records.append(explain.explanation_to_json(explanation, scene))
        if svg_dir:
            svg_items.append(
                (scene, tuple(g.part for g in explanation.groundings)))
    write_json(out, {"format": 1, "threshold": args.threshold,
                     "candidates": args.candidates,
                     "error_rate": args.error_rate, "seed": args.seed,
                     "explanations": records})
    if svg_dir:
        _emit_scene_svgs(svg_dir, svg_items)
    fallbacks = sum(r["fallback"] for r in records)
    print(f"wrote {len(records)} explanations ({fallbacks} fallbacks) "
          f"to {out}")
    return 0


def cmd_counterfactual(args) -> int:
    out = _resolve_out(args.out)
    dataset = _load_dataset(args.dataset)
    model = _load_model(args.model, "rank", dataset)
    lms = generation.fit_class_lms(dataset)
    scenes = _select_scenes(dataset, args)
    records = []
    for scene in scenes:
        cf_class = explain.counterfactual_class(scene, dataset.profiles)
        evidence, scores, explanation, neighbour = \
            explain.counterfactual_evidence(
                scene, cf_class, dataset, model, lms, n=args.candidates,
                error_rate=args.error_rate, seed=args.seed,
                threshold=args.threshold)
        cf_name = dataset.profile_for(cf_class).name
        negation, conditional = explain.negate_phrase(evidence, cf_name)
        records.append({
            "scene_id": scene.scene_id,
            "class_id": scene.class_id,
            "class_name": dataset.profile_for(scene.class_id).name,
            "counterfactual_class": cf_class,
            "counterfactual_name": cf_name,
            "neighbour_scene": neighbour.scene_id,
            "evidence": textproc.phrase_to_text(evidence),
            "negation": negation,
            "conditional": conditional,
            "phrase_scores": [
                {"text": textproc.phrase_to_text(p), "score": s}
                for p, s in zip(explanation.phrases, scores)],
        })
    write_json(out, {"format": 1, "candidates": args.candidates,
                     "error_rate": args.error_rate, "seed": args.seed,
                     "counterfactuals": records})
    print(f"wrote {len(records)} counterfactuals to {out}")
    return 0


def cmd_foil(args) -> int:
    _require_finite("--tau", args.tau)
    out = _resolve_out(args.out)
    dataset = _load_dataset(args.dataset)
    model = _load_model(args.model, "binary", dataset)
    report = foil.run_foil_eval(dataset, model, split=args.split,
                                tau=args.tau)
    write_json(out, report.to_json())
    if args.table:
        print(report.to_table())
    print(f"wrote foil report ({report.num_examples} examples, "
          f"{report.num_foils} foils) to {out}")
    return 0


def cmd_eval(args) -> int:
    out = _resolve_out(args.out)
    dataset = _load_dataset(args.dataset)
    model = _load_model(args.model, "rank", dataset)
    _select_scenes(dataset, args)  # only to reject a bad --split or --limit
    lms = generation.fit_class_lms(dataset)
    report = metrics.compare_methods(
        dataset, model, lms, n=args.candidates, error_rate=args.error_rate,
        seed=args.seed, threshold=args.threshold, split=args.split,
        limit=args.limit)
    write_json(out, report.to_json())
    if args.table:
        print(report.cnp_cs_table())
        print()
        print(report.keypoint_table())
    print(f"wrote metrics for {report.num_scenes} scenes to {out}")
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phrasecritic",
        description="ranking-based explanation pipeline on synthetic "
                    "bird scenes")
    sub = parser.add_subparsers(dest="command", required=True)

    # The synth and train config flags have no parser default: WorldConfig
    # and CriticHyper hold them (see _from_args).
    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", dest="num_classes", type=int,
                   metavar="CLASSES")
    p.add_argument("--scenes-per-class", type=int)
    p.add_argument("--sentences-per-scene", type=int)
    p.add_argument("--foils-per-scene", type=int)
    p.add_argument("--colors", type=int)
    p.add_argument("--sizes", type=int)
    p.add_argument("--patterns", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--feature-noise", type=float)
    p.add_argument("--emit-svg", metavar="DIR",
                   help="also render scene SVGs into DIR")
    p.add_argument("--svg-limit", type=int, default=8)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a critic")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="checkpoint JSON path")
    p.add_argument("--objective", choices=("rank", "binary"), default="rank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs-per-scene", type=int, default=10)
    p.add_argument("--pair-sentences", type=int, default=1,
                   help="ground-truth sentences per scene to pair up")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--hidden-dim", type=int)
    p.add_argument("--pairs-out", help="also write the mined pairs")
    p.add_argument("--report-out", help="also write the training report")
    p.set_defaults(func=cmd_train)

    # Flags shared by the commands that read a dataset and a checkpoint,
    # and by those that also sample candidate pools for selected scenes.
    serve = argparse.ArgumentParser(add_help=False)
    serve.add_argument("--dataset", required=True)
    serve.add_argument("--model", required=True,
                       help="critic checkpoint (binary for foil, rank "
                            "otherwise)")
    serve.add_argument("--out", required=True)
    serve.add_argument("--split", default="test")
    select = argparse.ArgumentParser(add_help=False, parents=[serve])
    select.add_argument("--limit", type=int)
    select.add_argument("--candidates", type=int, default=100)
    select.add_argument("--error-rate", type=float, default=0.3)
    select.add_argument("--threshold", type=float,
                        default=explain.DEFAULT_FLUENCY_THRESHOLD)
    select.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rank", parents=[select],
                       help="select explanations for scenes")
    p.add_argument("--scene", type=int, action="append",
                   help="explicit scene id (repeatable)")
    p.add_argument("--emit-svg", metavar="DIR")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("counterfactual", parents=[select],
                       help="evidence against the nearest other class")
    p.add_argument("--scene", type=int, action="append")
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("foil", parents=[serve],
                       help="evaluate the three foil tasks")
    p.add_argument("--tau", type=float,
                   help="baseline threshold; tuned on train when omitted")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_foil)

    p = sub.add_parser("eval", parents=[select],
                       help="compare selection strategies")
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_eval)

    return parser


def _fail(exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc), "code": code}
    print(json.dumps(record), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(exc, EXIT_MISSING_FILE)
    except CheckpointError as exc:
        return _fail(exc, EXIT_BAD_CHECKPOINT)
    except (ConfigurationError, GenerationError, ValueError) as exc:
        return _fail(exc, EXIT_BAD_CONFIG)
    except TrainingDivergedError as exc:
        return _fail(exc, EXIT_DIVERGED)
    except Exception as exc:  # pragma: no cover - last resort
        return _fail(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
