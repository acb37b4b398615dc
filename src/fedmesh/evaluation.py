"""Classification metrics and per-round trace records.

Metrics follow fixed zero-denominator conventions so results are
deterministic: per-class precision is 0 when nothing was predicted as the
class, recall is 0 when the class is absent, and F1 is 0 when
precision + recall is 0.  Macro averages run over the classes present in
the test set (row sum > 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Dataset, ModelSpec, check_params, predict_classes
from .privacy import NoiseReceipt

@dataclass(frozen=True)
class MetricsReport:
    """(accuracy, precision, recall, F1), each in [0, 1]."""

    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class ClientRoundRecord:
    """One client's view of one round, for the clients CSV."""

    client_id: int
    domain_tag: str
    participated: bool
    diverged: bool
    sample_count: int
    loss_before: float
    loss_after: float
    receipt: NoiseReceipt | None
    # Per-round budget actually in force (None when privacy is disabled).
    epsilon: float | None = None
    delta: float | None = None


@dataclass(frozen=True)
class RoundReport:
    """Everything an experiment records about one round."""

    round_index: int
    domain_losses: dict[str, float]
    global_loss: float
    global_metrics: MetricsReport
    tracked: dict[str, tuple[float, ...]]  # tag ("global" or domain) -> tracked coords
    clients: tuple[ClientRoundRecord, ...]


def confusion(spec: ModelSpec, params: np.ndarray, test: Dataset) -> np.ndarray:
    """K x K count matrix; rows are true classes, columns predictions."""
    params = check_params(spec, params)
    if test.feature_dim != spec.feature_dim or test.class_count != spec.class_count:
        raise ValueError("test dataset does not match the model spec")
    return count_predictions(spec.class_count, test.labels, predict_classes(spec, params, test.features))


def count_predictions(class_count: int, labels: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """K x K count matrix of true ``labels`` (rows) against ``predicted`` (columns)."""
    cells = np.bincount(labels * class_count + predicted, minlength=class_count * class_count)
    return cells.reshape(class_count, class_count)


def metrics(counts: np.ndarray) -> MetricsReport:
    """Summarize a confusion matrix with macro averages."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError("confusion matrix must be square")
    total = int(counts.sum())
    if total <= 0:
        raise ValueError("empty confusion matrix")

    diag = np.diag(counts).astype(np.float64)
    row_sums = counts.sum(axis=1).astype(np.float64)
    col_sums = counts.sum(axis=0).astype(np.float64)
    accuracy = float(diag.sum() / total)

    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(col_sums > 0, diag / col_sums, 0.0)
        recall = np.where(row_sums > 0, diag / row_sums, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    present = row_sums > 0
    return MetricsReport(
        accuracy=accuracy,
        precision=float(precision[present].mean()),
        recall=float(recall[present].mean()),
        f1=float(f1[present].mean()),
    )


def evaluate(spec: ModelSpec, params: np.ndarray, test: Dataset) -> MetricsReport:
    """Confusion + metrics in one step."""
    return metrics(confusion(spec, params, test))


def trace_parameters(params: np.ndarray, indices) -> np.ndarray:
    """Selected parameter coordinates, in the order the indices are given."""
    params = np.asarray(params, dtype=np.float64)
    indices = np.asarray(list(indices), dtype=np.int64)
    if indices.size == 0:
        return np.empty(0, dtype=np.float64)
    if indices.min() < 0 or indices.max() >= params.shape[0]:
        raise IndexError(
            f"tracked index out of range for parameter dim {params.shape[0]}"
        )
    return params[indices]
