"""Replicated simulated annealing over {-1,+1}^N plus exact small-instance analysis."""

from .annealer import (
    AnnealSchedule,
    Chain,
    RunStats,
    accept_combined,
    accept_two_stage,
    interaction_delta,
    log_cosh_stable,
    make_rng,
    spawn_seed,
)
from .energies import (
    ClassifierDataset,
    CrossEntropyEnergy,
    PatternSet,
    PerceptronEnergy,
    TabulatedEnergy,
    generate_synthetic,
    rectified_margin,
)
from .spins import ReplicaEnsemble

__all__ = [
    "AnnealSchedule", "Chain", "RunStats", "accept_combined", "accept_two_stage",
    "interaction_delta", "log_cosh_stable", "make_rng", "spawn_seed",
    "ClassifierDataset", "CrossEntropyEnergy", "PatternSet", "PerceptronEnergy",
    "TabulatedEnergy", "generate_synthetic", "rectified_margin",
    "ReplicaEnsemble",
]

__version__ = "0.1.0"
