"""Per-layer tracing of the phrasecritic modules, applied from outside.

The program has no tracing of its own, so this module wraps its public
functions at every name where a caller looks them up (``cli.train_ranker``
and ``foil.train_classifier`` are imported by name, ``grounding.ground_all``
is looked up on the module) and records one span per call: name, start,
end and the span that was open when it began. Spans and counters stay in
memory; ``Trace.to_json`` gives them to the caller to write out when the
run ends. A layer is a module, and its self time is the time inside its
spans that no child span covers.

A target that no longer exists is reported as missing, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

PACKAGE = "phrasecritic"

LAYERS = ("worldsim", "jsonio", "textproc", "negatives", "grounding",
          "generation", "critic", "explain", "foil", "metrics", "cli")


def _write_json_bytes(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["jsonio.write_json.bytes"] += os.path.getsize(path)


def _make_negatives(counts, args, kwargs, result):
    k = kwargs.get("k", args[2] if len(args) > 2 else 10)
    counts["negatives.mined"] += len(result)
    counts["negatives.make_negatives.short"] += len(result) < k


def _build_rank_pairs(counts, args, kwargs, result):
    counts["negatives.pairs"] += len(result)


def _sample_candidates(counts, args, kwargs, result):
    counts["generation.candidates"] += len(result)


def _pack_sequences(counts, args, kwargs, result):
    counts["critic.sequences_packed"] += len(args[0])


def _score_many(counts, args, kwargs, result):
    counts["critic.sequences_scored"] += len(result)


def _training(counts, args, kwargs, result):
    report = result[1] if isinstance(result, tuple) else result
    counts["critic.epochs"] += report.epochs
    counts["critic.epoch_wall"] += report.wall_clock


def _select_explanation(counts, args, kwargs, result):
    counts["explain.fallbacks"] += bool(result.fallback)


# (module, attribute path, hook). The hook derives counters from a call's
# arguments and result; every target also counts its calls and time.
TARGETS = (
    ("worldsim", "generate_dataset", None),
    ("worldsim", "Dataset.load", None),
    ("jsonio", "write_json", _write_json_bytes),
    ("textproc", "chunk_sentence", None),
    ("negatives", "build_rank_pairs", _build_rank_pairs),
    ("negatives", "make_negatives", _make_negatives),
    ("negatives", "ground_rank_pairs", None),
    ("grounding", "scene_features", None),
    ("grounding", "ground_all", None),
    ("grounding", "ground_phrase", None),
    ("generation", "fit_class_lms", None),
    ("generation", "sample_candidates", _sample_candidates),
    ("critic", "pack_sequences", _pack_sequences),
    ("critic", "CriticModel.score_many", _score_many),
    ("critic", "CriticModel.score", None),
    ("critic", "train_ranker", _training),
    # reached through foil.train_foil_classifier, whose hook counts epochs
    ("critic", "train_classifier", None),
    ("critic", "save_checkpoint", None),
    ("critic", "load_checkpoint", None),
    ("explain", "select_explanation", _select_explanation),
    ("explain", "ground_candidates", None),
    ("explain", "counterfactual_class", None),
    ("explain", "counterfactual_evidence", None),
    ("foil", "train_foil_classifier", _training),
    ("foil", "tune_tau", None),
    ("foil", "classify", None),
    ("foil", "detect_foil_word", None),
    ("foil", "correct_foil_word", None),
    ("foil", "run_foil_eval", None),
    ("metrics", "compare_methods", None),
    ("metrics", "cnp_cs", None),
    ("cli", "main", None),
    ("cli", "cmd_synth", None),
    ("cli", "cmd_train", None),
    ("cli", "cmd_rank", None),
    ("cli", "cmd_counterfactual", None),
    ("cli", "cmd_foil", None),
    ("cli", "cmd_eval", None),
)


class Trace:
    """Spans and counters of one traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []          # [name id, start, end, parent index]
        self.counts: Counter = Counter()
        self.hook_errors: set[str] = set()
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, hook):
        name_id = self.name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name_id, start, end, parent]
            if hook is not None:
                try:
                    hook(counts, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.hook_errors.add(name)
            return result

        return traced

    def summary(self) -> dict:
        """Per-name calls, inclusive and self time; per-layer self time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, (name_id, start, end, _) in enumerate(self.spans):
            calls[name_id] += 1
            total[name_id] += end - start
            own[name_id] += end - start - child[i]
        layers = {layer: 0.0 for layer in LAYERS}
        by_name = {}
        for name_id, name in enumerate(self.names):
            by_name[name] = {"calls": calls[name_id], "s": total[name_id],
                             "self_s": own[name_id]}
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + own[name_id]
        return {"functions": by_name, "layers": layers,
                "counts": dict(self.counts), "spans": len(self.spans),
                "hook_errors": sorted(self.hook_errors)}

    def to_json(self) -> dict:
        return {"names": self.names, "spans": self.spans,
                "counts": dict(self.counts)}


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Installs a Trace's wrappers and puts the originals back."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.missing: list[str] = []
        self._undo: list = []

    def install(self) -> "Patcher":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for module_name, path, hook in TARGETS:
            name = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                owner, attr = _resolve(module, path)
                raw = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.trace.wrap(raw.__func__, name,
                                                      hook))
                self._set(owner, attr, wrapped, raw)
                continue
            wrapped = self.trace.wrap(raw, name, hook)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped, raw)
                continue
            # Every module-level name bound to this function, so callers
            # that imported it by name see the wrapper too.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, key, wrapped, raw)
        return self

    def _set(self, owner, attr, value, original):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# Counters the hooks derive: metric -> (unit, wrapped names it comes from).
DERIVED = {
    "jsonio.write_json.bytes": ("bytes", ("jsonio.write_json",)),
    "negatives.make_negatives.short": ("count",
                                       ("negatives.make_negatives",)),
    "negatives.mined": ("count", ("negatives.make_negatives",)),
    "negatives.pairs": ("count", ("negatives.build_rank_pairs",)),
    "negatives.yield": ("ratio", ("negatives.make_negatives",
                                  "negatives.build_rank_pairs")),
    "generation.candidates": ("count", ("generation.sample_candidates",)),
    "critic.sequences_packed": ("count", ("critic.pack_sequences",)),
    "critic.sequences_scored": ("count", ("critic.CriticModel.score_many",)),
    "critic.epoch_s": ("s", ("critic.train_ranker",
                             "foil.train_foil_classifier")),
    "explain.fallbacks": ("count", ("explain.select_explanation",)),
}

OVERHEAD = "trace.overhead_pct"


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit.

    Each wrapped function gives <module>.<function>.calls and .s (inclusive
    time); each layer gives <layer>.self_s.
    """
    units = {}
    for module_name, path, _ in TARGETS:
        units[f"{module_name}.{path}.calls"] = "count"
        units[f"{module_name}.{path}.s"] = "s"
    units.update({name: unit for name, (unit, _) in DERIVED.items()})
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.spans"] = "count"
    units[OVERHEAD] = "%"
    return units


def missing_metrics(names) -> set[str]:
    """Metrics that cannot be measured when the wrapped ``names`` are gone."""
    names = set(names)
    out = {f"{n}.{field}" for n in names for field in ("calls", "s")}
    out.update(metric for metric, (_, sources) in DERIVED.items()
               if names.intersection(sources))
    return out


def per_layer(setup: dict, rounds: list[dict]) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one round of the timed section.

    ``setup`` and each entry of ``rounds`` are Trace.summary() results; the
    round values are averaged over the traced rounds. The tracing overhead
    needs the untraced rounds and is left to the caller.
    """
    def value(summary, key):
        if key == "trace.spans":
            return float(summary["spans"])
        if key.endswith(".self_s"):
            return summary["layers"].get(key.rsplit(".", 1)[0], 0.0)
        if key in DERIVED or key in ("critic.epochs", "critic.epoch_wall"):
            return float(summary["counts"].get(key, 0.0))
        name, field = key.rsplit(".", 1)
        entry = summary["functions"].get(name)
        return float(entry[field]) if entry else 0.0

    def combined(key):
        total = value(setup, key)
        if rounds:
            total += sum(value(r, key) for r in rounds) / len(rounds)
        return total

    out = {}
    for key in metric_units():
        if key == OVERHEAD:
            continue
        if key == "negatives.yield":
            mined = combined("negatives.mined")
            out[key] = combined("negatives.pairs") / mined if mined else 0.0
        elif key == "critic.epoch_s":
            epochs = combined("critic.epochs")
            out[key] = combined("critic.epoch_wall") / epochs \
                if epochs else 0.0
        else:
            out[key] = combined(key)
    return out
