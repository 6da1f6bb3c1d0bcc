"""Evaluation: keypoint agreement, phrase/sentence correctness, comparisons.

Keypoint metrics ask whether the box a phrase grounded to contains the
scene keypoint of the phrase's head-noun part (boxes are closed: boundary
points count) and how far the box centre sits from that keypoint. Phrase
correctness is exact: a phrase is correct iff the region of its head-noun
part truly carries every adjective the phrase mentions. CNP is the
fraction of correct phrases, CS the fraction of sentences whose phrases
are all correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import explain
from .critic import CriticModel
from .grounding import mean_grounding_score
from .jsonio import record_to_json
from .worldsim import Dataset, Scene, Taxonomy


def point_in_box(point, box) -> bool:
    """Closed-box containment: boundary points are inside."""
    x, y, w, h = box
    px, py = point
    return x <= px <= x + w and y <= py <= y + h


def box_center(box):
    x, y, w, h = box
    return (x + w / 2.0, y + h / 2.0)


def keypoint_sums(grounded, scene: Scene, taxonomy: Taxonomy):
    """Per-part [hits, phrases, summed centre-to-keypoint distance], plus
    how many phrases were excluded (no part, or no keypoint for it)."""
    sums: dict[str, list] = {}
    excluded = 0
    for g in grounded:
        part = taxonomy.canonical_part(g.phrase.noun)
        keypoint = scene.keypoints.get(part) if part else None
        if keypoint is None:
            excluded += 1
            continue
        cx, cy = box_center(g.box)
        entry = sums.setdefault(part, [0, 0, 0.0])
        entry[0] += point_in_box(keypoint, g.box)
        entry[1] += 1
        entry[2] += math.hypot(cx - keypoint[0], cy - keypoint[1])
    return sums, excluded


def keypoint_accuracy(grounded, scene: Scene, taxonomy: Taxonomy):
    """Per-part fraction of groundings whose box contains the keypoint."""
    sums, excluded = keypoint_sums(grounded, scene, taxonomy)
    return {part: hits / n for part, (hits, n, _) in sums.items()}, excluded


def keypoint_distance(grounded, scene: Scene, taxonomy: Taxonomy):
    """Per-part mean Euclidean distance from box centre to keypoint."""
    sums, _ = keypoint_sums(grounded, scene, taxonomy)
    return {part: dist / n for part, (_, n, dist) in sums.items()}


def phrase_correct(phrase, scene: Scene, taxonomy: Taxonomy) -> bool:
    """True iff the head-noun part's region carries every adjective."""
    part = taxonomy.canonical_part(phrase.noun)
    region = scene.region_for(part) if part else None
    if region is None:
        return False
    truths = set(region.attrs.values())
    return all(adj in truths for adj in phrase.adjectives)


def cnp_cs(phrase_lists, scenes, taxonomy: Taxonomy) -> tuple[float, float]:
    """Correct-noun-phrase and correct-sentence rates over selections."""
    total_phrases = correct_phrases = 0
    correct_sentences = 0
    for phrases, scene in zip(phrase_lists, scenes):
        flags = [phrase_correct(p, scene, taxonomy) for p in phrases]
        total_phrases += len(flags)
        correct_phrases += sum(flags)
        correct_sentences += bool(flags) and all(flags)
    cnp = correct_phrases / total_phrases if total_phrases else 0.0
    cs = correct_sentences / len(phrase_lists) if phrase_lists else 0.0
    return cnp, cs


@dataclass
class MethodMetrics:
    cnp: float
    cs: float
    keypoint_acc: dict[str, float]
    keypoint_dist: dict[str, float]
    excluded: int


@dataclass
class MetricReport:
    split: str
    num_scenes: int
    methods: dict[str, MethodMetrics] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"format": 1, **record_to_json(self)}

    def cnp_cs_table(self) -> str:
        lines = [f"{'method':<16}{'CNP':>8}{'CS':>8}"]
        for name, m in self.methods.items():
            lines.append(f"{name:<16}{100 * m.cnp:>7.2f}%{100 * m.cs:>7.2f}%")
        return "\n".join(lines)

    def keypoint_table(self) -> str:
        parts = sorted({p for m in self.methods.values()
                        for p in m.keypoint_acc})
        lines = [f"{'part':<8}" + "".join(f"{name:>18}"
                                          for name in self.methods)]
        for part in parts:
            row = f"{part:<8}"
            for m in self.methods.values():
                acc = m.keypoint_acc.get(part)
                dist = m.keypoint_dist.get(part)
                cell = "-" if acc is None \
                    else f"{100 * acc:.1f}% / {dist:.3f}"
                row += f"{cell:>18}"
            lines.append(row)
        return "\n".join(lines)


METHODS = ("fluency", "grounding_mean", "phrase_critic")


def compare_methods(dataset: Dataset, model: CriticModel, lms,
                    n: int = 100, error_rate: float = 0.3, seed: int = 0,
                    threshold: float = explain.DEFAULT_FLUENCY_THRESHOLD,
                    split: str = "test",
                    limit: int | None = None) -> MetricReport:
    """Score the three selection strategies on identical candidate pools.

    For every scene in the split (the first limit of them, if given) one
    candidate pool is sampled (with its groundings computed once); the
    fluency-only, grounding-mean, and gated phrase-critic selectors each
    pick from that same pool.
    """
    taxonomy, config = dataset.taxonomy, dataset.grounder
    scenes = dataset.scenes_in_split(split)[:limit]
    selections: dict[str, list] = {name: [] for name in METHODS}

    for scene in scenes:
        candidates = explain.candidate_pool(
            dataset, lms, scene, n, error_rate,
            np.random.default_rng([seed, 7, scene.scene_id]))
        grounded = explain.ground_candidates(candidates, scene, taxonomy,
                                             config)

        best_fluent = int(np.argmax([c.fluency for c in candidates]))
        selections["fluency"].append(
            (candidates[best_fluent].phrases, grounded[best_fluent], scene))

        means = [mean_grounding_score(g) for g in grounded]
        best_mean = int(np.argmax(means))
        selections["grounding_mean"].append(
            (candidates[best_mean].phrases, grounded[best_mean], scene))

        chosen = explain.select_explanation(candidates, scene, model,
                                            taxonomy, config, threshold,
                                            groundings=grounded)
        selections["phrase_critic"].append(
            (chosen.phrases, chosen.groundings, scene))

    report = MetricReport(split=split, num_scenes=len(scenes))
    for name, picks in selections.items():
        cnp, cs = cnp_cs([p for p, _, _ in picks], [s for _, _, s in picks],
                         taxonomy)
        totals: dict[str, list] = {}
        excluded = 0
        for _, grounded, scene in picks:
            sums, skipped = keypoint_sums(grounded, scene, taxonomy)
            excluded += skipped
            for part, row in sums.items():
                totals[part] = [t + v for t, v
                                in zip(totals.get(part, (0, 0, 0.0)), row)]
        report.methods[name] = MethodMetrics(
            cnp=cnp, cs=cs,
            keypoint_acc={p: h / n for p, (h, n, _) in totals.items()},
            keypoint_dist={p: d / n for p, (_, n, d) in totals.items()},
            excluded=excluded,
        )
    return report
