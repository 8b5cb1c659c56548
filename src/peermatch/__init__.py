"""Simulated learner agents with regression-guided study-partner matching.

The package covers the full pipeline: loading a multiple-choice corpus,
running persona-driven agents against a completion backend, labeling
collaboration gains, fitting a Gaussian-process (or neural) regressor on
those gains, and picking partners from Pareto fronts inside a seeded,
reproducible experiment harness.
"""

from .backends import CachingBackend, HttpBackend, LiveConfig, MockBackend
from .corpus import Exercise, ExerciseBlock, group_by_domain, load_corpus
from .features import HashingEmbedder, build_dataset, index_scores, pair_gain
from .gp import FittedGp, GpFitConfig, GpRegressor, KernelParams
from .harness import VariantConfig, default_suite_configs, default_synthetic_corpus, run_suite, run_variant
from .nn import MlpConfig, MlpRegressor
from .pareto import ScoreVector, dominates, pareto_front, rank_candidates
from .personas import Learner, Persona, default_cohort, enumerate_personas
from .protocol import exchange_and_resolve, parse_choice, solve_exercise

__version__ = "0.1.0"

__all__ = [
    "CachingBackend", "HttpBackend", "LiveConfig", "MockBackend",
    "Exercise", "ExerciseBlock", "group_by_domain", "load_corpus",
    "HashingEmbedder", "build_dataset", "index_scores", "pair_gain",
    "FittedGp", "GpFitConfig", "GpRegressor", "KernelParams",
    "VariantConfig", "default_suite_configs", "default_synthetic_corpus", "run_suite", "run_variant",
    "MlpConfig", "MlpRegressor",
    "ScoreVector", "dominates", "pareto_front", "rank_candidates",
    "Learner", "Persona", "default_cohort", "enumerate_personas",
    "exchange_and_resolve", "parse_choice", "solve_exercise",
]
