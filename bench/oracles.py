"""Output checks for the CLI's JSON artifacts, computed apart from the program.

Nothing here imports phrasecritic. Every check reads the artifacts the CLI
wrote and the dataset JSON, and either recomputes a value with code of its
own (chunking, grounding, the contradiction test, the mean-grounding foil
baseline, CNP/CS, the counterfactual class) or tests a property the method
must have (negatives differ only at their flips, picks clear the fluency
gate, evidence is the lowest-scored phrase).

Each check returns a list of error strings; an empty list means it passed.
The quality floors are kept apart from the exact checks so that the exact
ones can also run on worlds too small to train a good critic.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ATTRIBUTE_CATEGORIES = ("color", "size", "pattern")

# The sentence grammar's function words; attribute tokens and part nouns
# come from the dataset's taxonomy.
FUNCTION_WORDS = {"this": "DET", "a": "DET", "the": "DET", "is": "VERB",
                  "are": "VERB", "has": "VERB", "and": "CONJ",
                  "with": "OTHER"}

RANK_VAL_FLOOR = 0.95
CS_MARGIN = 0.05
EVIDENCE_UNTRUE_FLOOR = 0.90
FOIL_FLOORS = {"classification": 0.85, "detection": 0.60, "correction": 0.40}

SCHEMAS = {
    "dataset": "dataset.schema.json",
    "pairs": "pairs.schema.json",
    "checkpoint": "checkpoint.schema.json",
    "explanations": "explanations.schema.json",
    "counterfactuals": "counterfactuals.schema.json",
    "metrics": "metrics.schema.json",
    "foil_report": "foil_report.schema.json",
}


class SchemaChecker:
    """Validates artifacts against the JSON schemas in docs/schemas/."""

    def __init__(self, schema_dir):
        import jsonschema

        self._validators = {}
        for kind, filename in SCHEMAS.items():
            with open(Path(schema_dir) / filename, encoding="utf-8") as fh:
                schema = json.load(fh)
            cls = jsonschema.validators.validator_for(schema)
            self._validators[kind] = cls(schema)

    def check(self, kind, obj) -> list[str]:
        errors = self._validators[kind].iter_errors(obj)
        return [f"{kind} schema: {e.message} at {list(e.absolute_path)}"
                for e in errors][:5]


class World:
    """Ground truth, chunking and grounding recomputed from dataset JSON."""

    def __init__(self, ds: dict):
        tax = ds["taxonomy"]
        self.parts = tuple(tax["parts"])
        self.aliases = dict(tax["aliases"])
        self.kappa = {p: float(v) for p, v in tax["kappa"].items()}
        self.category = {}
        dims = []
        for cat in ATTRIBUTE_CATEGORIES:
            for tok in tax["categories"].get(cat, ()):
                self.category[tok] = cat
                dims.append(tok)
        for noun in self.parts + tuple(self.aliases):
            self.category[noun] = "part"
        self.tokens_of = {cat: tuple(tax["categories"][cat])
                          for cat in ATTRIBUTE_CATEGORIES}
        self.dims = frozenset(dims) | frozenset(self.parts)
        grounder = ds["grounder"]
        if grounder["feature_noise"] != 0.0:
            raise ValueError("the grounding oracle needs feature_noise 0")
        self.sigma = float(grounder["sigma"])
        self.grounder_seed = grounder["seed"]
        self.scenes = {s["id"]: s for s in ds["scenes"]}
        self.profiles = ds["profiles"]
        self.sentences = ds["sentences"]
        self._noise = {}

    # -- text ----------------------------------------------------------------

    def part_of(self, noun):
        if noun in self.parts:
            return noun
        return self.aliases.get(noun)

    def _tag(self, tok):
        cat = self.category.get(tok)
        if cat == "part":
            return "NOUN"
        if cat is not None:
            return "ADJ"
        return FUNCTION_WORDS.get(tok, "OTHER")

    def phrases(self, tokens):
        """(adjectives, noun) per attribute phrase, left to right.

        An adjective run (optionally joined by "and") closed by a noun, or
        "noun verb adjective"; the adjective pattern is tried first.
        """
        tags = [self._tag(t) for t in tokens]
        n = len(tokens)
        out = []
        i = 0
        while i < n:
            if tags[i] == "ADJ":
                adjs = [tokens[i]]
                j = i + 1
                while j < n:
                    if tags[j] == "ADJ":
                        adjs.append(tokens[j])
                        j += 1
                    elif tags[j] == "CONJ" and j + 1 < n \
                            and tags[j + 1] == "ADJ":
                        adjs.append(tokens[j + 1])
                        j += 2
                    else:
                        break
                if j < n and tags[j] == "NOUN":
                    out.append((tuple(adjs), tokens[j]))
                    i = j + 1
                    continue
            if i + 2 < n and tags[i:i + 3] == ["NOUN", "VERB", "ADJ"]:
                out.append(((tokens[i + 2],), tokens[i]))
                i += 3
                continue
            i += 1
        return out

    def content_indices(self, tokens):
        return [i for i, t in enumerate(tokens)
                if self.category.get(t) is not None]

    def flip_pool(self, token):
        cat = self.category.get(token)
        if cat == "part":
            own = self.part_of(token)
            return tuple(p for p in self.parts if p != own)
        return tuple(t for t in self.tokens_of[cat] if t != token)

    # -- truth ---------------------------------------------------------------

    def region(self, scene, part):
        for region in scene["regions"]:
            if region["part"] == part:
                return region
        return None

    def phrase_true(self, adjectives, noun, scene) -> bool:
        part = self.part_of(noun)
        region = self.region(scene, part) if part else None
        if region is None:
            return False
        truths = set(region["attrs"].values())
        return all(a in truths for a in adjectives)

    def contradicts(self, tokens, scene) -> bool:
        return any(not self.phrase_true(a, n, scene)
                   for a, n in self.phrases(tokens))

    # -- grounding -----------------------------------------------------------

    def _noise_draw(self, scene_id, index):
        key = (scene_id, index)
        if key not in self._noise:
            draws = np.random.default_rng(
                [self.grounder_seed, 2, scene_id]).standard_normal(index + 1)
            self._noise[key] = float(draws[-1] * self.sigma)
        return self._noise[key]

    def ground(self, adjectives, noun, scene, index):
        """(region index, raw score): first region with the most matched
        tokens, scored kappa(part) * min(matches, 1) plus the per-(scene,
        phrase index) Gaussian draw."""
        mention = {a for a in adjectives if a in self.dims}
        part = self.part_of(noun)
        if part is not None:
            mention.add(part)
        best, best_m = 0, -1
        for r, region in enumerate(scene["regions"]):
            m = len(mention & (set(region["attrs"].values())
                               | {region["part"]}))
            if m > best_m:
                best, best_m = r, m
        part = scene["regions"][best]["part"]
        score = self.kappa[part] * min(best_m, 1) \
            + self._noise_draw(scene["id"], index)
        return best, score

    def mean_score(self, tokens, scene) -> float:
        phrases = self.phrases(tokens)
        if not phrases:
            return float("-inf")
        return float(np.mean([self.ground(a, n, scene, i)[1]
                              for i, (a, n) in enumerate(phrases)]))

    # -- dataset views -------------------------------------------------------

    def split_scenes(self, split):
        return [s for s in self.scenes.values() if s["split"] == split]

    def truths_of(self, scene_id):
        return {tuple(s["tokens"]) for s in self.sentences
                if s["scene_id"] == scene_id and s["foil"] is None}

    def foil_examples(self, split):
        """(scene, tokens, label, foil index, original token) per example,
        each foiled sentence preceded by its restored original."""
        out = []
        for s in self.sentences:
            scene = self.scenes[s["scene_id"]]
            if s["foil"] is None or scene["split"] != split:
                continue
            index, original = s["foil"]["index"], s["foil"]["original"]
            restored = list(s["tokens"])
            restored[index] = original
            out.append((scene, restored, True, None, None))
            out.append((scene, list(s["tokens"]), False, index, original))
        return out


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


# -- train-rank ----------------------------------------------------------------

def check_pairs(world: World, pairs: dict) -> list[str]:
    """Mined pairs: positives are scene truths, negatives contradict the
    scene, differ only at their flips with same-category tokens, and are
    distinct per positive."""
    errors = []
    seen: dict[tuple, set] = {}
    truths: dict[int, set] = {}
    for n, pair in enumerate(pairs["pairs"]):
        where = f"pair {n} (scene {pair['scene_id']})"
        scene = world.scenes.get(pair["scene_id"])
        if scene is None:
            errors.append(f"{where}: unknown scene")
            continue
        pos, neg = tuple(pair["positive"]), tuple(pair["negative"])
        if pair["scene_id"] not in truths:
            truths[pair["scene_id"]] = world.truths_of(pair["scene_id"])
        if pos not in truths[pair["scene_id"]]:
            errors.append(f"{where}: positive is not a scene truth")
        if len(pos) != len(neg):
            errors.append(f"{where}: negative has another length")
            continue
        diff = [i for i, (a, b) in enumerate(zip(pos, neg)) if a != b]
        if diff != list(pair["flips"]):
            errors.append(f"{where}: differs at {diff}, flips say "
                          f"{pair['flips']}")
        for i in diff:
            cat = world.category.get(pos[i])
            if cat is None or world.category.get(neg[i]) != cat:
                errors.append(f"{where}: flip at {i} changes category")
        if not world.contradicts(neg, scene):
            errors.append(f"{where}: negative is true of its scene")
        group = seen.setdefault((pair["scene_id"], pos), {pos})
        if neg in group:
            errors.append(f"{where}: duplicate negative")
        group.add(neg)
    if not pairs["pairs"]:
        errors.append("no pairs written")
    return errors[:20]


def check_train_report(report: dict, objective: str) -> list[str]:
    errors = []
    if report.get("objective") != objective:
        errors.append(f"report objective {report.get('objective')!r}")
    losses = report.get("train_loss", [])
    if len(losses) != report.get("epochs") or not _finite(losses):
        errors.append("training losses missing or not finite")
    if not _finite(report.get("val_metric", [])):
        errors.append("validation metric not finite")
    return errors


def floor_rank_report(report: dict) -> list[str]:
    val = report["val_metric"][-1] if report["val_metric"] else 0.0
    if val < RANK_VAL_FLOOR:
        return [f"final held-out pairwise accuracy {val:.4f} "
                f"< {RANK_VAL_FLOOR}"]
    return []


def check_checkpoint(ckpt: dict, objective: str) -> list[str]:
    if ckpt.get("objective") != objective:
        return [f"checkpoint objective {ckpt.get('objective')!r}, "
                f"expected {objective!r}"]
    return []


# -- explain -------------------------------------------------------------------

def check_explanations(world: World, ranked: dict, split: str = "test",
                       limit: int | None = None) -> list[str]:
    """Gate soundness, chunking, and every phrase's grounding recomputed."""
    errors = []
    want_ids = [s["id"] for s in world.split_scenes(split)][:limit]
    got_ids = [r["scene_id"] for r in ranked["explanations"]]
    if got_ids != want_ids:
        errors.append(f"explained scenes {got_ids[:5]}... differ from the "
                      f"{split} split")
    threshold = ranked["threshold"]
    for rec in ranked["explanations"]:
        where = f"scene {rec['scene_id']}"
        scene = world.scenes[rec["scene_id"]]
        if not rec["fallback"] and not rec["fluency"] > threshold:
            errors.append(f"{where}: pick with fluency {rec['fluency']} "
                          f"passed the gate {threshold}")
        want = world.phrases(rec["tokens"])
        got = [(tuple(p["adjectives"]), p["noun"]) for p in rec["phrases"]]
        if got != want:
            errors.append(f"{where}: phrases {got} != chunked {want}")
            continue
        for index, phrase in enumerate(rec["phrases"]):
            region, score = world.ground(phrase["adjectives"], phrase["noun"],
                                         scene, index)
            if phrase["region_index"] != region or phrase["score"] != score:
                errors.append(
                    f"{where} phrase {index}: grounded to "
                    f"{phrase['region_index']} ({phrase['score']!r}), oracle "
                    f"says {region} ({score!r})")
            elif phrase["part"] != scene["regions"][region]["part"] \
                    or phrase["box"] != scene["regions"][region]["box"]:
                errors.append(f"{where} phrase {index}: part or box is not "
                              f"region {region}'s")
    return errors[:20]


def cnp_cs(world: World, ranked: dict) -> tuple[float, float]:
    """Correct-noun-phrase and correct-sentence rates of the rank picks."""
    total = correct = sentences = 0
    for rec in ranked["explanations"]:
        scene = world.scenes[rec["scene_id"]]
        flags = [world.phrase_true(p["adjectives"], p["noun"], scene)
                 for p in rec["phrases"]]
        total += len(flags)
        correct += sum(flags)
        sentences += bool(flags) and all(flags)
    n = len(ranked["explanations"])
    return (correct / total if total else 0.0,
            sentences / n if n else 0.0)


def check_metrics(world: World, metrics: dict, ranked: dict) -> list[str]:
    """The phrase critic's CNP/CS equal those of rank's picks."""
    errors = []
    critic = metrics["methods"]["phrase_critic"]
    cnp, cs = cnp_cs(world, ranked)
    if (critic["cnp"], critic["cs"]) != (cnp, cs):
        errors.append(f"phrase_critic CNP/CS {critic['cnp']}/{critic['cs']} "
                      f"!= {cnp}/{cs} from rank's picks")
    if metrics["num_scenes"] != len(ranked["explanations"]):
        errors.append(f"eval covers {metrics['num_scenes']} scenes, rank "
                      f"{len(ranked['explanations'])}")
    return errors


def floor_metrics(metrics: dict) -> list[str]:
    methods = metrics["methods"]
    cs = methods["phrase_critic"]["cs"]
    return [f"phrase_critic CS {cs:.4f} is not {CS_MARGIN} above {name} "
            f"{methods[name]['cs']:.4f}"
            for name in ("fluency", "grounding_mean")
            if cs - methods[name]["cs"] < CS_MARGIN]


def _slot_distance(assignment, profile) -> int:
    return sum(1 for part, cats in profile["attributes"].items()
               for cat, tok in cats.items()
               if assignment.get((part, cat)) != tok)


def _assignment(scene):
    return {(r["part"], cat): tok
            for r in scene["regions"] for cat, tok in r["attrs"].items()}


def check_counterfactuals(world: World, cfs: dict) -> list[str]:
    """Nearest other class, nearest neighbour scene, lowest-scored evidence
    rendered verbatim in both templates."""
    errors = []
    for rec in cfs["counterfactuals"]:
        where = f"scene {rec['scene_id']}"
        scene = world.scenes[rec["scene_id"]]
        assignment = _assignment(scene)
        others = [p for p in world.profiles
                  if p["class_id"] != scene["class"]]
        nearest = min(others, key=lambda p: _slot_distance(assignment, p))
        if rec["counterfactual_class"] != nearest["class_id"]:
            errors.append(f"{where}: counterfactual class "
                          f"{rec['counterfactual_class']}, nearest is "
                          f"{nearest['class_id']}")
            continue
        candidates = [s for s in world.scenes.values()
                      if s["class"] == nearest["class_id"]]
        neighbour = min(candidates, key=lambda s: sum(
            1 for k, tok in _assignment(s).items()
            if assignment.get(k) != tok))
        if rec["neighbour_scene"] != neighbour["id"]:
            errors.append(f"{where}: neighbour {rec['neighbour_scene']}, "
                          f"nearest is {neighbour['id']}")
        scores = [p["score"] for p in rec["phrase_scores"]]
        if not scores:
            errors.append(f"{where}: no phrase scores")
            continue
        lowest = rec["phrase_scores"][scores.index(min(scores))]["text"]
        if rec["evidence"] != lowest:
            errors.append(f"{where}: evidence {rec['evidence']!r} is not the "
                          f"lowest-scored phrase {lowest!r}")
        if rec["evidence"] not in rec["negation"] \
                or rec["evidence"] not in rec["conditional"]:
            errors.append(f"{where}: evidence not verbatim in the templates")
    return errors[:20]


def _text_true(world: World, text: str, scene) -> bool:
    words = text.split()
    return world.phrase_true(words[:-1], words[-1], scene)


def evidence_untrue(world: World, cfs: dict) -> dict:
    """Evidence untrue of the query, over all records and over the records
    whose explanation offered at least one untrue phrase to pick."""
    untrue = total = open_untrue = open_total = 0
    for rec in cfs["counterfactuals"]:
        scene = world.scenes[rec["scene_id"]]
        hit = not _text_true(world, rec["evidence"], scene)
        untrue += hit
        total += 1
        if not all(_text_true(world, p["text"], scene)
                   for p in rec["phrase_scores"]):
            open_untrue += hit
            open_total += 1
    return {"untrue": untrue, "total": total, "untrue_when_possible":
            open_untrue, "possible": open_total}


def floor_counterfactuals(world: World, cfs: dict) -> list[str]:
    """At least 90% of the evidence is untrue of the query, counted over
    the records where the neighbour's explanation has an untrue phrase.

    When every phrase of that explanation holds in the query, the method
    can only return true evidence, whatever the critic scores; how often
    that happens depends on the world drawn (1 to 11 of 60 test scenes
    across seeds 0 to 59 of the explain world), so it is reported, not
    gated.
    """
    n = evidence_untrue(world, cfs)
    if n["possible"] == 0 \
            or n["untrue_when_possible"] < EVIDENCE_UNTRUE_FLOOR * n["possible"]:
        return [f"{n['untrue_when_possible']}/{n['possible']} evidence "
                f"phrases untrue of the query where one was available, "
                f"below {EVIDENCE_UNTRUE_FLOOR:.0%}"]
    return []


# -- foil ----------------------------------------------------------------------

def tune_tau(world: World, examples) -> float:
    """Smallest accuracy-maximising midpoint between distinct mean scores."""
    means = np.array([world.mean_score(tokens, scene)
                      for scene, tokens, _, _, _ in examples])
    labels = np.array([label for _, _, label, _, _ in examples])
    finite = np.unique(means[np.isfinite(means)])
    if len(finite) < 2:
        return float(finite[0] - 1.0) if len(finite) else 0.0
    best_tau, best_acc = None, -1.0
    for tau in (finite[:-1] + finite[1:]) / 2.0:
        acc = float(np.mean((means > tau) == labels))
        if acc > best_acc:
            best_tau, best_acc = float(tau), acc
    return best_tau


def baseline_report(world: World, split: str = "test") -> dict:
    """The tuned mean-grounding baseline on the three foil tasks."""
    tau = tune_tau(world, world.foil_examples("train"))
    examples = world.foil_examples(split)
    cls = det = cor = foils = 0
    for scene, tokens, label, index, original in examples:
        cls += (world.mean_score(tokens, scene) > tau) == label
        if label:
            continue
        foils += 1
        held = [world.mean_score(tokens[:i] + tokens[i + 1:], scene)
                for i in world.content_indices(tokens)]
        det += world.content_indices(tokens)[int(np.argmax(held))] == index
        best_tok, best = None, None
        for target in sorted(world.flip_pool(tokens[index])):
            swapped = list(tokens)
            swapped[index] = target
            s = world.mean_score(swapped, scene)
            if best is None or s > best:
                best_tok, best = target, s
        cor += best_tok == original
    n = len(examples)
    return {"tau": tau, "num_examples": n, "num_foils": foils,
            "classification": cls / n if n else 0.0,
            "detection": det / foils if foils else 0.0,
            "correction": cor / foils if foils else 0.0}


def check_foil_report(world: World, report: dict,
                      baseline: dict) -> list[str]:
    """Counts from the dataset; tau and baseline accuracies recomputed."""
    errors = []
    for key in ("num_examples", "num_foils", "tau"):
        if report[key] != baseline[key]:
            errors.append(f"{key} {report[key]!r}, expected "
                          f"{baseline[key]!r}")
    for task in FOIL_FLOORS:
        if report["baseline"][task] != baseline[task]:
            errors.append(f"baseline {task} {report['baseline'][task]!r}, "
                          f"expected {baseline[task]!r}")
    return errors


def floor_foil_report(report: dict) -> list[str]:
    errors = []
    for task, floor in FOIL_FLOORS.items():
        got, base = report["critic"][task], report["baseline"][task]
        if not got > base:
            errors.append(f"critic {task} {got:.4f} does not beat the "
                          f"baseline {base:.4f}")
        if got < floor:
            errors.append(f"critic {task} {got:.4f} below floor {floor}")
    return errors
