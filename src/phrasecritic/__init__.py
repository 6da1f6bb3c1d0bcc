"""Phrase-critic explanation pipeline on a synthetic bird world.

The package builds attribute-labelled scenes with class-conditioned
descriptions, grounds attribute phrases to scene regions with a noisy
retrieval-style matcher, trains a recurrent critic to rank explanations
by visual relevance, and gates its selections by sentence fluency. On
top of that sit counterfactual explanations, a foil-word benchmark
(classification, detection, correction), and selection-strategy metrics.
"""

from .critic import (CriticHyper, CriticModel, TrainReport, gradients,
                     load_checkpoint, pairwise_accuracy, rank_loss,
                     save_checkpoint, train_classifier, train_ranker)
from .errors import (CheckpointError, ConfigurationError, GenerationError,
                     TrainingDivergedError)
from .explain import (DEFAULT_FLUENCY_THRESHOLD, Explanation,
                      counterfactual_class, counterfactual_evidence,
                      negate_phrase, select_explanation)
from .foil import FoilReport, run_foil_eval, train_foil_classifier
from .generation import (BigramLM, Candidate, fit_class_lms,
                         fit_language_model, fluency, sample_candidates)
from .grounding import (GroundedPhrase, ground_all, ground_many,
                        ground_phrase)
from .metrics import MetricReport, compare_methods, cnp_cs, phrase_correct
from .negatives import (RankPair, build_rank_pairs, ground_rank_pairs,
                        make_negatives)
from .textproc import AttributePhrase, chunk_sentence
from .worldsim import (ClassProfile, Dataset, GrounderConfig, Scene,
                       Taxonomy, WorldConfig, generate_dataset)

__version__ = "0.1.0"

__all__ = [
    "AttributePhrase", "BigramLM", "Candidate", "CheckpointError",
    "ClassProfile", "ConfigurationError", "CriticHyper", "CriticModel",
    "DEFAULT_FLUENCY_THRESHOLD", "Dataset", "Explanation", "FoilReport",
    "GenerationError", "GroundedPhrase", "GrounderConfig", "MetricReport",
    "RankPair", "Scene", "Taxonomy", "TrainReport", "TrainingDivergedError",
    "WorldConfig", "build_rank_pairs", "chunk_sentence", "cnp_cs",
    "compare_methods", "counterfactual_class", "counterfactual_evidence",
    "fit_class_lms", "fit_language_model", "fluency", "generate_dataset",
    "gradients", "ground_all", "ground_many", "ground_phrase",
    "ground_rank_pairs", "load_checkpoint", "make_negatives", "negate_phrase",
    "pairwise_accuracy", "phrase_correct", "rank_loss", "run_foil_eval",
    "sample_candidates", "save_checkpoint", "select_explanation",
    "train_classifier", "train_foil_classifier", "train_ranker", "__version__",
]
