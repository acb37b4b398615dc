import numpy as np
import pytest

from fedmesh.data import (
    BUILTIN_RECIPE_NAMES,
    CsvSchema,
    DomainRecipe,
    PartitionPlan,
    builtin_recipe,
    load_csv,
    partition,
    synthesize,
)
from fedmesh.model import Dataset

from conftest import write_dataset_csv


def test_builtin_recipes_exist():
    assert set(BUILTIN_RECIPE_NAMES) == {"medical", "financial", "user"}
    for name in BUILTIN_RECIPE_NAMES:
        recipe = builtin_recipe(name)
        assert recipe.feature_dim == 2 and recipe.class_count == 3


def test_synthesize_deterministic():
    recipe = builtin_recipe("medical")
    a = synthesize(recipe, 150, seed=9)
    b = synthesize(recipe, 150, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = synthesize(recipe, 150, seed=10)
    assert not np.array_equal(a.features, c.features)


def test_synthesize_degenerate_prior_is_deterministic_class():
    recipe = DomainRecipe(
        domain_id="one",
        class_means=np.zeros((3, 2)),
        class_covariance_scale=1.0,
        mean_shift=np.zeros(2),
        label_prior=np.array([1.0, 0.0, 0.0]),
    )
    dataset = synthesize(recipe, 50, seed=1)
    assert np.all(dataset.labels == 0)


def test_all_zero_prior_rejected():
    with pytest.raises(ValueError):
        DomainRecipe(
            domain_id="bad",
            class_means=np.zeros((2, 2)),
            class_covariance_scale=1.0,
            mean_shift=np.zeros(2),
            label_prior=np.array([0.0, 0.0]),
        )


@pytest.mark.parametrize(
    "field,value",
    [
        ("class_means", np.array([[0.0, np.inf], [1.0, 0.0]])),
        ("mean_shift", np.array([np.nan, 0.0])),
        ("label_prior", np.array([np.nan, 1.0])),
        ("class_covariance_scale", np.inf),
    ],
)
def test_non_finite_recipe_rejected(field, value):
    recipe = dict(
        domain_id="bad",
        class_means=np.zeros((2, 2)),
        class_covariance_scale=1.0,
        mean_shift=np.zeros(2),
        label_prior=np.array([0.5, 0.5]),
    )
    recipe[field] = value
    with pytest.raises(ValueError, match=f"^{field} "):
        DomainRecipe(**recipe)


def test_uniform_prior_class_fraction():
    recipe = DomainRecipe(
        domain_id="balanced",
        class_means=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        class_covariance_scale=1.0,
        mean_shift=np.zeros(2),
        label_prior=np.array([0.5, 0.5]),
    )
    dataset = synthesize(recipe, 10_000, seed=21)
    fraction = float(np.mean(dataset.labels == 0))
    assert abs(fraction - 0.5) < 0.02


def _toy_dataset(n=120, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(0, 1, (n, 2)), rng.integers(0, k, n), k)


def test_iid_partition_single_client_is_whole_dataset():
    dataset = _toy_dataset()
    (shard,) = partition(dataset, PartitionPlan(seed=5), 1)
    assert np.array_equal(np.sort(shard.labels), np.sort(dataset.labels))
    assert shard.features.shape == dataset.features.shape


@pytest.mark.parametrize("scheme", ["iid", "dirichlet_label_skew"])
def test_partition_covers_disjointly(scheme):
    dataset = _toy_dataset(n=211)
    plan = PartitionPlan(scheme=scheme, dirichlet_alpha=0.5, seed=13)
    shards = partition(dataset, plan, 5)
    assert sum(len(s) for s in shards) == len(dataset)
    # Multiset equality on (feature row, label) tuples proves a true partition.
    def keys(d):
        return sorted((tuple(f), int(l)) for f, l in zip(d.features, d.labels))

    merged = sorted(sum((keys(s) for s in shards), []))
    assert merged == keys(dataset)


def test_partition_deterministic():
    dataset = _toy_dataset()
    plan = PartitionPlan(scheme="dirichlet_label_skew", dirichlet_alpha=0.3, seed=2)
    first = partition(dataset, plan, 4)
    second = partition(dataset, plan, 4)
    for a, b in zip(first, second):
        assert np.array_equal(a.features, b.features)


def test_partition_insufficient_samples():
    dataset = _toy_dataset(n=10)
    with pytest.raises(ValueError, match="insufficient"):
        partition(dataset, PartitionPlan(min_samples_per_client=5), 4)


def test_partition_needs_a_client():
    with pytest.raises(ValueError, match="client_count must be >= 1"):
        partition(_toy_dataset(), PartitionPlan(), 0)


def _label_skew(shards, k):
    """Mean total-variation distance of shard label mixes from the pool mix."""
    pool = np.concatenate([s.labels for s in shards])
    overall = np.bincount(pool, minlength=k) / len(pool)
    distances = []
    for shard in shards:
        mix = np.bincount(shard.labels, minlength=k) / len(shard)
        distances.append(0.5 * np.abs(mix - overall).sum())
    return float(np.mean(distances))


def test_dirichlet_alpha_controls_skew():
    dataset = _toy_dataset(n=600, seed=3)
    skew_small, skew_large = [], []
    for seed in range(20):
        small = partition(
            dataset,
            PartitionPlan(scheme="dirichlet_label_skew", dirichlet_alpha=0.1, seed=seed),
            4,
        )
        large = partition(
            dataset,
            PartitionPlan(scheme="dirichlet_label_skew", dirichlet_alpha=100.0, seed=seed),
            4,
        )
        skew_small.append(_label_skew(small, 3))
        skew_large.append(_label_skew(large, 3))
    assert np.mean(skew_small) > np.mean(skew_large)


def test_csv_round_trip(tmp_path):
    dataset = _toy_dataset(n=37, seed=8)
    schema = CsvSchema(feature_columns=("x0", "x1"), label_column="label")
    path = tmp_path / "data.csv"
    write_dataset_csv(path, dataset, ("x0", "x1", "label"), ("alpha", "beta", "gamma"))
    loaded = load_csv(str(path), schema)
    assert np.array_equal(loaded.dataset.features, dataset.features)
    assert np.array_equal(loaded.dataset.labels, dataset.labels)
    assert loaded.label_names == ("alpha", "beta", "gamma")


def test_csv_three_rows(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("x0,x1,label\n1.0,2.0,yes\n3.0,4.0,no\n5.0,6.0,yes\n")
    loaded = load_csv(str(path), CsvSchema(("x0", "x1"), "label"))
    assert len(loaded.dataset) == 3
    assert loaded.label_names == ("no", "yes")
    assert loaded.dataset.labels.tolist() == [1, 0, 1]


def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x0,x1,label\n")
    with pytest.raises(ValueError, match="empty dataset"):
        load_csv(str(path), CsvSchema(("x0", "x1"), "label"))


def test_csv_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label\n1.0,2.0,a\noops,4.0,b\n")
    with pytest.raises(ValueError, match=":3:"):
        load_csv(str(path), CsvSchema(("x0", "x1"), "label"))


def test_csv_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("x0,label\n1.0,a\n2.0,b\n")
    with pytest.raises(ValueError, match="missing column 'x1'"):
        load_csv(str(path), CsvSchema(("x0", "x1"), "label"))
