"""Synthetic domain generators, non-IID partitioning, and CSV ingestion.

Three built-in recipes (``medical``, ``financial``, ``user``) stand in for
the cross-domain data sources: each draws Gaussian class-conditional
features around shared class centers, but with a per-domain mean shift and
a skewed label prior, so the domains are controllably heterogeneous.

Partitioning supports ``iid`` (seeded shuffle into near-equal shards) and
``dirichlet_label_skew``: each client's label mix is drawn from a
symmetric Dirichlet(alpha), the de facto construction for label-skew
benchmarks.  Smaller alpha means more skew.

All generation is deterministic given the seed (Philox generators, see
:mod:`fedmesh.rng`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset
from .rng import MASK64, generator

SCHEME_IID = "iid"
SCHEME_DIRICHLET = "dirichlet_label_skew"


@dataclass(frozen=True)
class DomainRecipe:
    """Generative description of one domain's data distribution."""

    class_means: np.ndarray  # (K, d) feature-space centers
    class_covariance_scale: float
    mean_shift: np.ndarray  # (d,) offset applied to every center
    label_prior: np.ndarray  # (K,) class probabilities

    def __post_init__(self) -> None:
        for name in ("class_means", "mean_shift", "label_prior"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.isfinite(values).all():
                raise ValueError(f"{name} entries must be finite")
            object.__setattr__(self, name, values)
        if self.class_means.ndim != 2:
            raise ValueError("class_means must be (K, d)")
        if self.mean_shift.shape != (self.class_means.shape[1],):
            raise ValueError("mean_shift length must equal feature_dim")
        if self.label_prior.shape != (self.class_means.shape[0],):
            raise ValueError("label_prior length must equal class count")
        if np.any(self.label_prior < 0):
            raise ValueError("label_prior entries must be >= 0")
        if abs(float(self.label_prior.sum()) - 1.0) > 1e-9:
            raise ValueError("label_prior must sum to 1 within 1e-9")
        if not 0 < self.class_covariance_scale < math.inf:
            raise ValueError("class_covariance_scale must be finite and > 0")

    @property
    def class_count(self) -> int:
        return self.class_means.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.class_means.shape[1]


@dataclass(frozen=True)
class PartitionPlan:
    """How to split one dataset across clients."""

    scheme: str = SCHEME_IID
    dirichlet_alpha: float = 1.0
    min_samples_per_client: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in (SCHEME_IID, SCHEME_DIRICHLET):
            raise ValueError(f"scheme must be {SCHEME_IID} or {SCHEME_DIRICHLET}, not {self.scheme!r}")
        if not self.dirichlet_alpha > 0:
            raise ValueError("dirichlet_alpha must be > 0")
        if self.min_samples_per_client < 1:
            raise ValueError("min_samples_per_client must be >= 1")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must lie in [0, 2^64)")


# Shared class geometry for the built-in recipes: three centers on a
# circle of radius 2 in a 2-D feature space.
_BUILTIN_MEANS = 2.0 * np.array(
    [
        [np.cos(0.0), np.sin(0.0)],
        [np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0)],
        [np.cos(4.0 * np.pi / 3.0), np.sin(4.0 * np.pi / 3.0)],
    ]
)

# Built once: a recipe is immutable, so every config shares these.
_BUILTIN = {
    name: DomainRecipe(_BUILTIN_MEANS, 0.8, np.array(mean_shift), np.array(label_prior))
    for name, mean_shift, label_prior in (
        ("medical", (0.4, 0.2), (0.60, 0.25, 0.15)),
        ("financial", (-0.3, 0.4), (0.20, 0.55, 0.25)),
        ("user", (0.1, -0.5), (0.25, 0.20, 0.55)),
    )
}

BUILTIN_RECIPE_NAMES = tuple(_BUILTIN)


def builtin_recipe(name: str) -> DomainRecipe:
    """One of the three bundled domain recipes (feature_dim 2, 3 classes)."""
    try:
        return _BUILTIN[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin recipe {name!r}; choose from {sorted(_BUILTIN)}"
        ) from None


def synthesize(recipe: DomainRecipe, n: int, seed: int) -> Dataset:
    """Draw ``n`` examples from the recipe's distribution, deterministically.

    Labels come from ``label_prior``; the feature vector for label ``k`` is
    Gaussian around ``class_means[k] + mean_shift`` with isotropic standard
    deviation ``class_covariance_scale``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = generator(seed)
    labels = rng.choice(recipe.class_count, size=n, p=recipe.label_prior)
    centers = recipe.class_means[labels] + recipe.mean_shift
    features = centers + rng.normal(0.0, recipe.class_covariance_scale, size=centers.shape)
    return Dataset(features, labels, recipe.class_count)


def _shard_sizes(total: int, parts: int) -> np.ndarray:
    sizes = np.full(parts, total // parts, dtype=np.int64)
    sizes[: total % parts] += 1
    return sizes


def partition(dataset: Dataset, plan: PartitionPlan, client_count: int) -> list[Dataset]:
    """Split ``dataset`` into ``client_count`` disjoint shards covering it.

    Every example is assigned to exactly one shard.  Under the dirichlet
    scheme the per-class index pools are dealt out according to Dirichlet
    proportions, redrawn (bounded retries) until every shard reaches
    ``min_samples_per_client``.
    """
    if client_count < 1:
        raise ValueError("client_count must be >= 1")
    n = len(dataset)
    if n < client_count * plan.min_samples_per_client:
        raise ValueError(
            f"insufficient samples: {n} < {client_count} clients "
            f"x {plan.min_samples_per_client} min_samples_per_client"
        )
    rng = generator(plan.seed)
    if plan.scheme == SCHEME_IID:
        order = rng.permutation(n)
        splits = np.split(order, np.cumsum(_shard_sizes(n, client_count))[:-1])
        return [dataset.subset(np.sort(idx)) for idx in splits]

    # dirichlet_label_skew: per class, deal the (shuffled) index pool out
    # in chunks proportional to a fresh Dirichlet draw per client.
    for _ in range(1000):
        assigned: list[list[np.ndarray]] = [[] for _ in range(client_count)]
        for k in range(dataset.class_count):
            pool = np.flatnonzero(dataset.labels == k)
            if len(pool) == 0:
                continue
            pool = rng.permutation(pool)
            props = rng.dirichlet(np.full(client_count, plan.dirichlet_alpha))
            cuts = (np.cumsum(props)[:-1] * len(pool)).astype(np.int64)
            for client, chunk in enumerate(np.split(pool, cuts)):
                assigned[client].append(chunk)
        shard_indices = [
            np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.int64)
            for chunks in assigned
        ]
        if min(len(idx) for idx in shard_indices) >= plan.min_samples_per_client:
            return [dataset.subset(idx) for idx in shard_indices]
    raise ValueError(
        "insufficient samples: could not satisfy min_samples_per_client "
        f"({plan.min_samples_per_client}) under dirichlet_alpha={plan.dirichlet_alpha}"
    )


@dataclass(frozen=True)
class CsvSource:
    """A file-backed domain: its columns, its file, and its held-out share."""

    feature_columns: tuple[str, ...]
    label_column: str
    path: str
    eval_fraction: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        if not self.feature_columns or not all(isinstance(c, str) for c in self.feature_columns):
            raise ValueError("feature_columns must be a non-empty list of strings")
        if self.label_column in self.feature_columns:
            raise ValueError("label_column must not also be a feature column")
        if not 0.0 < self.eval_fraction < 1.0:
            raise ValueError("eval_fraction must lie in (0, 1)")


def load_csv(source: CsvSource) -> tuple[Dataset, tuple[str, ...]]:
    """Parse a comma-separated UTF-8 file (header row required, BOM allowed).

    Returns the dataset and its label names.  Label strings are mapped to
    indices by sorting the distinct values, so the mapping depends only on
    the file's label set.  Parse failures report the 1-based line number.
    """
    path = source.path
    rows: list[tuple[list[float], str]] = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file (no header row)")
        for col in (*source.feature_columns, source.label_column):
            count = reader.fieldnames.count(col)
            if count == 0:
                raise ValueError(f"{path}: missing column {col!r}")
            if count > 1:
                raise ValueError(f"{path}: column {col!r} appears more than once in the header")
        for record in reader:
            line = reader.line_num
            feats = []
            for col in source.feature_columns:
                raw = record[col]
                if raw is None:
                    raise ValueError(f"{path}:{line}: missing value for column {col!r}")
                try:
                    value = float(raw)
                except ValueError:
                    raise ValueError(
                        f"{path}:{line}: non-numeric feature {raw!r} in column {col!r}"
                    ) from None
                if not np.isfinite(value):
                    raise ValueError(f"{path}:{line}: non-finite feature in column {col!r}")
                feats.append(value)
            label = record[source.label_column]
            if label is None or label == "":
                raise ValueError(f"{path}:{line}: missing label")
            rows.append((feats, label))
    if not rows:
        raise ValueError(f"{path}: empty dataset (header only)")
    label_names = tuple(sorted({label for _, label in rows}))
    if len(label_names) < 2:
        raise ValueError(f"{path}: need at least 2 distinct labels, found {len(label_names)}")
    index = {name: i for i, name in enumerate(label_names)}
    features = np.array([feats for feats, _ in rows], dtype=np.float64)
    labels = np.array([index[label] for _, label in rows], dtype=np.int64)
    return Dataset(features, labels, len(label_names)), label_names

