"""The benchmark federations, generated from the workload seed.

Each workload is a plain fedmesh config dict: the program only ever sees
the config file the benchmark writes.  Everything random in it (the
config seed, the partition seed and, for the scaled federations, the
synthetic recipes) is drawn from ``numpy.random.default_rng`` keyed by
the workload seed, so one seed always yields one config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SOCKET = "socket_secure_2c"
SECURE = "sim_scaled_secure"
NAMES = (SOCKET, SECURE)

# Scaled federation shape: 4 domains x 16 clients, d=32, K=10.
SCALED_DOMAINS = 4
SCALED_CLIENTS_PER_DOMAIN = 16
SCALED_DIM = 32
SCALED_CLASSES = 10
SCALED_TRAIN_PER_DOMAIN = 3200  # 12,800 in all, 200 per client when IID
SCALED_EVAL_PER_DOMAIN = 500


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    rounds: int  # rounds per federation; every run does whole federations
    socket: bool


def _seed_words(seed: int, label: str) -> list[int]:
    return [seed & 0xFFFFFFFF, seed >> 32] + list(label.encode("ascii"))


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(_seed_words(seed, label))


def _u64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63, dtype=np.int64))


def scaled_recipes(seed: int) -> list[dict]:
    """Four inline recipes: shared class means, per-domain shift and prior."""
    rng = _rng(seed, "recipes")
    means = rng.normal(0.0, 0.45, size=(SCALED_CLASSES, SCALED_DIM))
    recipes = []
    for _ in range(SCALED_DOMAINS):
        shift = rng.normal(0.0, 0.5, size=SCALED_DIM)
        prior = rng.dirichlet(np.full(SCALED_CLASSES, 4.0))
        recipes.append(
            {
                "class_means": means.tolist(),
                "class_covariance_scale": 1.0,
                "mean_shift": shift.tolist(),
                "label_prior": prior.tolist(),
            }
        )
    return recipes


def _scaled_config(seed: int, rounds: int) -> dict:
    rng = _rng(seed, "scaled")
    domains = [
        {
            "tag": f"domain{i}",
            "recipe": recipe,
            "train_samples": SCALED_TRAIN_PER_DOMAIN,
            "eval_samples": SCALED_EVAL_PER_DOMAIN,
            "clients": SCALED_CLIENTS_PER_DOMAIN,
        }
        for i, recipe in enumerate(scaled_recipes(seed))
    ]
    return {
        "seed": _u64(rng),
        "model": {"feature_dim": SCALED_DIM, "class_count": SCALED_CLASSES},
        "domains": domains,
        "partition": {"scheme": "iid", "seed": _u64(rng)},
        "schedule": {
            "rounds": rounds,
            "local_epochs": 5,
            "batch_size": None,
            "learning_rate": 0.1,
            "lr_decay": 0.99,
            "participation_fraction": 1.0,
        },
        "policy": {"kind": "size_weighted"},
        "privacy": {"enabled": True, "epsilon": 8.0, "delta": 1e-5, "clip_norm": 1.0},
        "secure_aggregation": True,
        "fixed_point_scale_bits": 24,
        "tracked_indices": [0, 1, 5],
    }


def _socket_config(seed: int, rounds: int) -> dict:
    rng = _rng(seed, "socket")
    return {
        "seed": _u64(rng),
        "model": {"feature_dim": 2, "class_count": 3},
        "domains": [
            {"recipe": "medical", "train_samples": 240, "eval_samples": 120},
            {"recipe": "financial", "train_samples": 240, "eval_samples": 120},
        ],
        "partition": {"scheme": "iid", "seed": _u64(rng)},
        "schedule": {
            "rounds": rounds,
            "local_epochs": 5,
            "learning_rate": 0.1,
            "lr_decay": 0.99,
            "participation_fraction": 1.0,
        },
        "policy": {"kind": "uniform"},
        "privacy": {"enabled": True, "epsilon": 8.0, "delta": 1e-5, "clip_norm": 0.1},
        "secure_aggregation": True,
        "fixed_point_scale_bits": 24,
        "tracked_indices": [0, 1, 5],
        "transport": {"host": "127.0.0.1", "port": 0, "timeout_seconds": 30.0},
    }


ROUNDS = {SOCKET: 40, SECURE: 20}


def build(name: str, seed: int, rounds: int | None = None) -> Workload:
    """The workload's config for ``seed``; ``rounds`` overrides its round count."""
    rounds = ROUNDS[name] if rounds is None else rounds
    if name == SOCKET:
        return Workload(name, _socket_config(seed, rounds), rounds, socket=True)
    if name == SECURE:
        return Workload(name, _scaled_config(seed, rounds), rounds, socket=False)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
