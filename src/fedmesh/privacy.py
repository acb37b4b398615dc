"""Differential-privacy layer: L2 clipping plus calibrated Gaussian noise.

A released update is clipped to norm ``C`` and perturbed with i.i.d.
Gaussian(0, sigma^2) noise where ``sigma = C * sqrt(2 ln(1.25/delta)) / epsilon``,
the standard Gaussian-mechanism calibration for (epsilon, delta)-DP.

Conventions, stated rather than hidden:

* Sensitivity is taken as ``C`` (replace-one neighboring relation on the
  released, clipped update), not ``2C``.
* The calibration is valid for ``epsilon <= 1``; larger budgets are
  accepted with a logged warning.
* A budget is refused unless epsilon and ``C`` are finite and the
  resulting sigma is finite and > 0.
* No accounting across rounds: the per-round (epsilon, delta) is reported
  as-is in round reports.

Noise seeds are derived per (experiment, client, round) via
:func:`fedmesh.rng.derive_seed`, so client draws are independent and the
whole pipeline is reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .rng import generator

log = logging.getLogger(__name__)

MECHANISM_GAUSSIAN = "gaussian"
MECHANISM_NONE = "none"

_warned_epsilons: set[float] = set()


@dataclass(frozen=True)
class PrivacyBudget:
    """(epsilon, delta, clip norm) triple governing one client's releases."""

    epsilon: float = 1.0
    delta: float = 1e-5
    clip_norm: float = 1.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and > 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be finite and > 0")
        sigma = _gaussian_sigma(self)
        if not 0 < sigma < math.inf:
            raise ValueError(f"noise scale sigma={sigma!r} must be finite and > 0")


@dataclass(frozen=True)
class NoiseReceipt:
    """Audit record of what the mechanism actually did to an update."""

    sigma: float
    clip_applied: bool
    pre_clip_norm: float
    mechanism: str

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if (self.sigma == 0.0) != (self.mechanism == MECHANISM_NONE):
            raise ValueError("sigma is 0 exactly when mechanism is 'none'")


def _l2_norm(values: np.ndarray) -> float:
    """The L2 norm; ``inf``, without a warning, when it is beyond the float range."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(values))


def clip(values: np.ndarray, clip_norm: float) -> tuple[np.ndarray, bool, float]:
    """Scale ``values`` onto the L2 ball of radius ``clip_norm``.

    Returns ``(clipped, clip_applied, pre_clip_norm)``.  Inputs already
    inside the ball are returned unchanged (same object, no copy).  A
    finite input whose norm overflows reports ``inf`` and is divided by
    its largest magnitude before it is scaled.
    """
    if not clip_norm > 0:
        raise ValueError("clip_norm must be > 0")
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot clip non-finite values")
    norm = _l2_norm(values)
    if norm <= clip_norm:
        return values, False, norm
    if norm == math.inf:
        scaled = values / np.max(np.abs(values))
        return scaled * (clip_norm / float(np.linalg.norm(scaled))), True, norm
    return values * (clip_norm / norm), True, norm


def _gaussian_sigma(budget: PrivacyBudget) -> float:
    return budget.clip_norm * math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon


def calibrate_sigma(budget: PrivacyBudget) -> float:
    """Gaussian-mechanism noise scale for the budget: C*sqrt(2 ln(1.25/delta))/eps."""
    if not budget.enabled:
        raise ValueError("cannot calibrate a disabled budget")
    if budget.epsilon > 1.0 and budget.epsilon not in _warned_epsilons:
        _warned_epsilons.add(budget.epsilon)
        log.warning(
            "epsilon=%.3g exceeds 1; the closed-form Gaussian calibration is "
            "only guaranteed for epsilon <= 1",
            budget.epsilon,
        )
    return _gaussian_sigma(budget)


def privatize(
    values: np.ndarray, budget: PrivacyBudget, seed: int
) -> tuple[np.ndarray, NoiseReceipt]:
    """Clip then noise an update under ``budget``; identity when disabled."""
    values = np.asarray(values, dtype=np.float64)
    if not budget.enabled:
        receipt = NoiseReceipt(
            sigma=0.0,
            clip_applied=False,
            pre_clip_norm=_l2_norm(values),
            mechanism=MECHANISM_NONE,
        )
        return values, receipt
    clipped, applied, pre_norm = clip(values, budget.clip_norm)
    sigma = calibrate_sigma(budget)
    # clip() has checked finiteness, and an enabled budget's sigma is > 0.
    noised = clipped + generator(seed).normal(0.0, sigma, size=clipped.shape)
    receipt = NoiseReceipt(
        sigma=sigma,
        clip_applied=applied,
        pre_clip_norm=pre_norm,
        mechanism=MECHANISM_GAUSSIAN,
    )
    return noised, receipt
