"""Fluency-gated explanation selection and counterfactual evidence.

Selection first discards candidates whose fluency falls at or below the
threshold, then returns the survivor with the highest critic relevance
(the gated score is S_r when S_f is above threshold and 0 otherwise). If
the gate removes everything scorable, selection falls back to the most
fluent candidate and flags it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import generation, grounding, textproc
from .critic import CriticModel
from .grounding import GroundedPhrase
from .textproc import AttributePhrase
from .worldsim import Dataset, Scene, assignment_distance

DEFAULT_FLUENCY_THRESHOLD = -5.0


@dataclass
class Explanation:
    """The selected candidate with scores and grounding evidence."""

    candidate: generation.Candidate
    fluency: float
    relevance: float | None
    gated_score: float
    groundings: list[GroundedPhrase]
    rank: int
    fallback: bool

    @property
    def tokens(self):
        return self.candidate.tokens

    @property
    def phrases(self):
        return self.candidate.phrases


def explanation_to_json(explanation: "Explanation", scene: Scene) -> dict:
    record = {
        "scene_id": scene.scene_id,
        "class_id": scene.class_id,
        "tokens": list(explanation.tokens),
        "text": " ".join(explanation.tokens),
        "fluency": explanation.fluency,
        "relevance": explanation.relevance,
        "gated_score": explanation.gated_score,
        "fallback": explanation.fallback,
        "rank": explanation.rank,
        "phrases": [{
            "text": textproc.phrase_to_text(g.phrase),
            "adjectives": list(g.phrase.adjectives),
            "noun": g.phrase.noun,
            "part": g.part,
            "region_index": g.region_index,
            "box": list(g.box),
            "score": g.score,
        } for g in explanation.groundings],
    }
    return record


def candidate_pool(dataset: Dataset, lms, scene: Scene, n: int,
                   error_rate: float, rng: np.random.Generator):
    """Sample n candidate explanations for a scene from its class's LM."""
    return generation.sample_candidates(
        scene, dataset.profile_for(scene.class_id), dataset.taxonomy,
        lms[scene.class_id], n=n, error_rate=error_rate, seed=rng)


def ground_candidates(candidates, scene, taxonomy, config):
    """Ground each candidate once, in one ground_many call, for reuse."""
    return grounding.ground_many([c.phrases for c in candidates], scene,
                                 taxonomy, config)


def select_explanation(candidates, scene: Scene, model: CriticModel,
                       taxonomy, config,
                       threshold: float = DEFAULT_FLUENCY_THRESHOLD,
                       groundings=None) -> Explanation:
    """Pick the most relevant sufficiently fluent candidate.

    Candidates with no chunkable phrases cannot be scored by the critic and
    are treated like gated ones. Ties resolve to the earliest candidate.
    groundings, if given, holds every candidate's grounded phrases;
    otherwise the gate survivors (or the fallback pick alone) are grounded
    in one ground_many call.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    survivor_idx = [i for i, c in enumerate(candidates)
                    if c.fluency > threshold and c.phrases]
    # without survivors, only the fallback pick (the most fluent) is needed
    picks = survivor_idx or [int(np.argmax([c.fluency for c in candidates]))]
    if groundings is None:
        groundings = dict(zip(picks, ground_candidates(
            [candidates[i] for i in picks], scene, taxonomy, config)))

    if survivor_idx:
        scores = model.score_many([groundings[i] for i in survivor_idx])
        # BLAS may score identical rows of one batch a bit apart: give each
        # survivor the score of the first survivor with its tokens.
        first = {}
        for pos, i in enumerate(survivor_idx):
            first.setdefault(tuple(candidates[i].tokens), pos)
        scores = scores[[first[tuple(candidates[i].tokens)]
                         for i in survivor_idx]]
        best_pos = int(np.argmax(scores))
        best = survivor_idx[best_pos]
        relevance = float(scores[best_pos])
        return Explanation(candidates[best], candidates[best].fluency,
                           relevance, relevance, groundings[best], best,
                           fallback=False)

    # Everything gated (or unscorable): fall back to the most fluent
    # candidate; its gated score is zero by definition.
    (best,) = picks
    relevance = model.score(groundings[best]) \
        if candidates[best].phrases else None
    return Explanation(candidates[best], candidates[best].fluency,
                       relevance, 0.0, groundings[best], best, fallback=True)


def counterfactual_class(scene: Scene, profiles) -> int:
    """Most attribute-similar other class for a scene (never its own)."""
    others = [p for p in profiles if p.class_id != scene.class_id]
    if not others:
        raise ValueError("no other class available for a counterfactual")
    return _nearest(scene, others).class_id


def _nearest(query: Scene, records):
    # the first record (scene or profile) at the least assignment distance
    assignment = query.assignment()
    return min(records, key=lambda r: assignment_distance(
        assignment, r.assignment()))


def counterfactual_evidence(query: Scene, cf_class: int, dataset: Dataset,
                            model: CriticModel, lms, n: int = 100,
                            error_rate: float = 0.3, seed: int = 0,
                            threshold: float = DEFAULT_FLUENCY_THRESHOLD):
    """Find the counterfactual-class phrase least supported by the query.

    The explanation pipeline runs on the nearest scene of the
    counterfactual class; each of its phrases is then grounded in the query
    scene and scored alone by the critic (as its own sequence, all in one
    call), and the lowest-scoring phrase is returned as evidence, along
    with all per-phrase scores and the neighbour scene.
    """
    neighbours = [s for s in dataset.scenes if s.class_id == cf_class]
    if not neighbours:
        raise ValueError(f"no scenes of class {cf_class}")
    neighbour = _nearest(query, neighbours)
    candidates = candidate_pool(
        dataset, lms, neighbour, n, error_rate,
        np.random.default_rng([seed, 6, query.scene_id]))
    explanation = select_explanation(candidates, neighbour, model,
                                     dataset.taxonomy, dataset.grounder,
                                     threshold)
    phrases = explanation.phrases
    grounded = grounding.ground_all(phrases, query, dataset.taxonomy,
                                    dataset.grounder)
    scores = model.score_many([[g] for g in grounded]).tolist()
    evidence = phrases[int(np.argmin(scores))]
    return evidence, scores, explanation, neighbour


_PLURAL_NOUNS = {"feet", "feathers"}


def _article(noun: str) -> str:
    if noun in _PLURAL_NOUNS or noun.endswith("s"):
        return ""
    return "a "


def negate_phrase(phrase: AttributePhrase,
                  cf_class_name: str) -> tuple[str, str]:
    """Render the negation and the counterfactual conditional for a phrase.

    Plural head nouns drop the article ("does not have black wings", "does
    not have a long flat bill").
    """
    text = textproc.phrase_to_text(phrase)
    article = _article(phrase.noun)
    negation = f"this bird does not have {article}{text}"
    conditional = (f"if this bird had been a {cf_class_name}, "
                   f"it would have had {article}{text}")
    return negation, conditional
