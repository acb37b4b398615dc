"""fedmesh: a federated learning engine and simulator.

Clients train a shared softmax-linear model on local data and release
only clipped, noised parameter deltas; the server combines them under a
pluggable weighting policy, optionally through an exact masked secure-sum
protocol, and the whole pipeline is deterministic given the experiment
seed.  The same engine runs in-process (``simulate``) or as one server
plus N client processes over TCP (``serve`` / ``join``).
"""

from .data import DomainRecipe, PartitionPlan, builtin_recipe, partition, synthesize
from .evaluation import MetricsReport, RoundReport, confusion, evaluate, metrics
from .federation import (
    AggregationPolicy,
    ClientState,
    ClientUpdate,
    FederationEngine,
    TrainingSchedule,
    derive_privacy_weights,
    local_train,
)
from .model import Dataset, ModelSpec, gradient, init_params, loss, param_dim, predict_classes
from .privacy import NoiseReceipt, PrivacyBudget, calibrate_sigma, clip, privatize
from .secure_sum import FixedPointCodec, MaskedShare, PairwiseSeedMatrix, mask, unmask_sum

__version__ = "0.1.0"

__all__ = [
    "AggregationPolicy",
    "ClientState",
    "ClientUpdate",
    "Dataset",
    "DomainRecipe",
    "FederationEngine",
    "FixedPointCodec",
    "MaskedShare",
    "MetricsReport",
    "ModelSpec",
    "NoiseReceipt",
    "PairwiseSeedMatrix",
    "PartitionPlan",
    "PrivacyBudget",
    "RoundReport",
    "TrainingSchedule",
    "builtin_recipe",
    "calibrate_sigma",
    "clip",
    "confusion",
    "derive_privacy_weights",
    "evaluate",
    "gradient",
    "init_params",
    "local_train",
    "loss",
    "mask",
    "metrics",
    "param_dim",
    "partition",
    "predict_classes",
    "privatize",
    "synthesize",
    "unmask_sum",
]
