"""Multinomial logistic regression: the shared model trained by every client.

The model family is fixed to softmax-linear (one weight vector plus bias
per class).  It is convex, so convergence checks have a unique global
optimum, and a single-client federation is exactly equivalent to
centralized gradient descent.

Parameter layout is canonical and class-major: for class ``k`` the slice
``params[k*(d+1) : (k+1)*(d+1)]`` holds the ``d`` feature weights followed
by the bias.  Serialization, masking, and parameter traces all rely on
this fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILY_SOFTMAX_LINEAR = "softmax_linear"


@dataclass(frozen=True)
class ModelSpec:
    """Shape and regularization of the shared model."""

    feature_dim: int
    class_count: int
    l2_coefficient: float = 0.0
    family: str = FAMILY_SOFTMAX_LINEAR

    def __post_init__(self) -> None:
        if self.family != FAMILY_SOFTMAX_LINEAR:
            raise ValueError(f"family must be {FAMILY_SOFTMAX_LINEAR}, not {self.family!r}")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if not np.isfinite(self.l2_coefficient) or self.l2_coefficient < 0:
            raise ValueError("l2_coefficient must be finite and >= 0")


@dataclass
class Dataset:
    """A fixed labelled sample: features ``(n, d)`` float64, labels ``(n,)`` int.

    Immutable by convention: arrays are never written to after construction.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be 1-D with one entry per example")
        if len(self.labels) == 0:
            raise ValueError("empty dataset")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError("labels must lie in [0, class_count)")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.class_count)


def param_dim(spec: ModelSpec) -> int:
    """Total parameter count: class_count * (feature_dim + 1)."""
    return spec.class_count * (spec.feature_dim + 1)


def init_params(spec: ModelSpec) -> np.ndarray:
    """The canonical all-zero starting point."""
    return np.zeros(param_dim(spec), dtype=np.float64)


def check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (param_dim(spec),):
        raise ValueError(
            f"parameter vector has dim {params.shape}, expected ({param_dim(spec)},)"
        )
    if not np.all(np.isfinite(params)):
        raise ValueError("parameter vector contains non-finite values")
    return params


def unpack(spec: ModelSpec, params: np.ndarray):
    """Views of the packed vector as weights ``(K, d)`` and biases ``(K,)``."""
    table = params.reshape(spec.class_count, spec.feature_dim + 1)
    return table[:, : spec.feature_dim], table[:, spec.feature_dim]


def batch_logits(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Logit matrix ``(n, K)`` for a feature matrix ``(n, d)``."""
    weights, bias = unpack(spec, params)
    return features @ weights.T + bias


def predict_classes(spec: ModelSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Argmax class per row of a feature matrix; ties resolve to the lowest class index."""
    return np.argmax(batch_logits(spec, params, features), axis=1)


def _check_dataset(spec: ModelSpec, dataset: Dataset) -> None:
    if dataset.feature_dim != spec.feature_dim:
        raise ValueError(
            f"dataset feature_dim {dataset.feature_dim} != spec feature_dim {spec.feature_dim}"
        )
    if dataset.class_count != spec.class_count:
        raise ValueError(
            f"dataset class_count {dataset.class_count} != spec class_count {spec.class_count}"
        )


def loss(spec: ModelSpec, params: np.ndarray, dataset: Dataset) -> float:
    """Mean cross-entropy plus (l2/2) * ||weights||^2; biases unregularized.

    Log-sum-exp uses max subtraction, so the result is finite for any
    finite parameters.
    """
    params = check_params(spec, params)
    _check_dataset(spec, dataset)
    logits = batch_logits(spec, params, dataset.features)
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    n = len(dataset)
    ce = float(np.mean(lse - logits[np.arange(n), dataset.labels]))
    if spec.l2_coefficient > 0.0:
        weights, _ = unpack(spec, params)
        ce += 0.5 * spec.l2_coefficient * float(np.sum(weights * weights))
    return ce


def gradient(spec: ModelSpec, params: np.ndarray, dataset: Dataset) -> np.ndarray:
    """Exact analytic gradient of :func:`loss`, packed like the parameters."""
    params = check_params(spec, params)
    _check_dataset(spec, dataset)
    logits = batch_logits(spec, params, dataset.features)
    zmax = logits.max(axis=1, keepdims=True)
    probs = np.exp(logits - zmax)
    probs /= probs.sum(axis=1, keepdims=True)
    n = len(dataset)
    probs[np.arange(n), dataset.labels] -= 1.0
    probs /= n
    grad = np.empty_like(params).reshape(spec.class_count, spec.feature_dim + 1)
    grad[:, : spec.feature_dim] = probs.T @ dataset.features
    grad[:, spec.feature_dim] = probs.sum(axis=0)
    if spec.l2_coefficient > 0.0:
        weights, _ = unpack(spec, params)
        grad[:, : spec.feature_dim] += spec.l2_coefficient * weights
    return grad.ravel()
