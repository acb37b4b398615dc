import csv
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.data import (
    BUILTIN_RECIPE_NAMES,
    CsvSource,
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


def _source(path, features=("x0", "x1")):
    return CsvSource(feature_columns=features, label_column="label", path=str(path))


def test_csv_round_trip(tmp_path):
    dataset = _toy_dataset(n=37, seed=8)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, dataset, ("x0", "x1", "label"), ("alpha", "beta", "gamma"))
    loaded, label_names = load_csv(_source(path))
    assert np.array_equal(loaded.features, dataset.features)
    assert np.array_equal(loaded.labels, dataset.labels)
    assert label_names == ("alpha", "beta", "gamma")


def test_csv_three_rows(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("x0,x1,label\n1.0,2.0,yes\n3.0,4.0,no\n5.0,6.0,yes\n")
    loaded, label_names = load_csv(_source(path))
    assert len(loaded) == 3
    assert label_names == ("no", "yes")
    assert loaded.labels.tolist() == [1, 0, 1]


def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x0,x1,label\n")
    with pytest.raises(ValueError, match="empty dataset"):
        load_csv(_source(path))


def test_csv_non_numeric_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,label\n1.0,2.0,a\noops,4.0,b\n")
    with pytest.raises(ValueError, match=":3:"):
        load_csv(_source(path))


def test_csv_missing_column(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("x0,label\n1.0,a\n2.0,b\n")
    with pytest.raises(ValueError, match="missing column 'x1'"):
        load_csv(_source(path))


def test_csv_with_a_byte_order_mark_loads_the_same_dataset(tmp_path):
    # "CSV UTF-8" exports from spreadsheet tools begin with a BOM and end lines with CRLF.
    text = "x0,x1,label\n0.5,-1.25,b\n3.0,4.0,a\n-0.0,1e-300,b\n"
    plain, exported = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    exported.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
    (want, want_names), (got, got_names) = load_csv(_source(plain)), load_csv(_source(exported))
    assert got.features.tobytes() == want.features.tobytes()
    assert np.array_equal(got.labels, want.labels)
    assert got_names == want_names == ("a", "b")


def test_csv_header_naming_a_column_twice_is_refused(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,b,a,label\n1.0,2.0,100.0,x\n3.0,4.0,300.0,y\n5.0,6.0,500.0,x\n")
    message = "dup.csv: column 'a' appears more than once in the header"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_csv(_source(path, features=("a", "b")))


@pytest.mark.parametrize(
    "fields,needle",
    [
        ({"feature_columns": ()}, "feature_columns"),
        ({"feature_columns": ("x0", 1)}, "feature_columns"),
        ({"label_column": "x1"}, "label_column"),
        ({"eval_fraction": 1.0}, "eval_fraction"),
    ],
)
def test_csv_source_checks_its_fields(fields, needle):
    values = {"feature_columns": ("x0", "x1"), "label_column": "label", "path": "d.csv", **fields}
    with pytest.raises(ValueError, match=f"^{needle} "):
        CsvSource(**values)


_LABEL = st.text(st.characters(codec="utf-8", exclude_categories=("Cs", "Cc")), min_size=1, max_size=4)


@st.composite
def _csv_files(draw):
    """(file bytes, feature columns, feature rows, labels) of a well-formed CSV domain."""
    dim = draw(st.integers(1, 3))
    # At least 2 rows, because a file needs 2 distinct labels.
    n = draw(st.integers(2, 30))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=n, max_size=n))
    names = draw(st.lists(_LABEL, min_size=2, max_size=4, unique=True))
    labels = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
    labels[:2] = names[:2]
    features = [f"f{i}" for i in range(dim)]
    header = draw(st.permutations([*features, "label", "unused"]))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for feats, label in zip(rows, labels):
        cells = {**{f: repr(v) for f, v in zip(features, feats)}, "label": label, "unused": "?"}
        lines.append([cells[column] for column in header])
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=terminator)
    writer.writerow(header)
    writer.writerows(lines)
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.getvalue().encode("utf-8"), tuple(features), rows, labels


@settings(max_examples=30, deadline=None)
@given(_csv_files())
def test_load_csv_reads_back_what_was_written(case):
    data, features, rows, labels = case
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "domain.csv"
        path.write_bytes(data)
        dataset, names = load_csv(_source(path, features=features))
    assert dataset.features.tobytes() == np.array(rows, dtype=np.float64).tobytes()
    assert names == tuple(sorted(set(labels)))
    assert dataset.labels.tolist() == [names.index(label) for label in labels]
