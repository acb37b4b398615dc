import numpy as np
import pytest

from fedmesh.evaluation import confusion, evaluate, metrics, trace_parameters
from fedmesh.model import Dataset, ModelSpec, predict_classes

from conftest import random_instance


def test_confusion_perfect_predictor():
    spec = ModelSpec(feature_dim=1, class_count=2)
    # Strongly separating weights: class 0 for negative x, class 1 for positive.
    params = np.array([-10.0, 0.0, 10.0, 0.0])
    test = Dataset(np.array([[-1.0], [-2.0], [1.0], [2.0]]), np.array([0, 0, 1, 1]), 2)
    cm = confusion(spec, params, test)
    assert np.array_equal(cm, np.array([[2, 0], [0, 2]]))


def test_confusion_constant_predictor_column():
    spec = ModelSpec(feature_dim=1, class_count=2)
    params = np.array([0.0, 10.0, 0.0, -10.0])  # bias-only: always class 0
    rng = np.random.default_rng(0)
    test = Dataset(rng.normal(0, 1, (10, 1)), np.array([0] * 5 + [1] * 5), 2)
    cm = confusion(spec, params, test)
    assert cm[:, 0].tolist() == [5, 5]
    assert cm[:, 1].tolist() == [0, 0]


def test_confusion_row_sums_are_class_counts():
    rng = np.random.default_rng(2)
    for _ in range(20):
        spec, params, dataset = random_instance(rng)
        cm = confusion(spec, params, dataset)
        expected = np.bincount(dataset.labels, minlength=spec.class_count)
        assert np.array_equal(cm.sum(axis=1), expected)
        assert cm.sum() == len(dataset)


def test_metrics_diagonal_is_perfect():
    report = metrics(np.diag([4, 7, 2]))
    assert report.accuracy == report.precision == report.recall == report.f1 == 1.0


def test_metrics_hand_computed_binary_case():
    report = metrics(np.array([[5, 5], [0, 10]]))
    assert report.accuracy == pytest.approx(0.75)
    # class 0: p=1.0, r=0.5, f1=2/3; class 1: p=2/3, r=1.0, f1=0.8
    assert report.precision == pytest.approx((1.0 + 10 / 15) / 2)
    assert report.recall == pytest.approx(0.75)
    assert report.f1 == pytest.approx((2 / 3 + 0.8) / 2)


def test_metrics_report_field_order_matches_table():
    # Reports read (accuracy, precision, recall, f1), in that column order.
    report = metrics(np.array([[5, 5], [0, 10]]))
    assert list(report.__dataclass_fields__) == ["accuracy", "precision", "recall", "f1"]


def test_metrics_zero_denominator_conventions():
    # Nothing predicted as class 1 and class 2 absent from the test set.
    cm = np.array([[3, 0, 0], [2, 0, 0], [0, 0, 0]])
    report = metrics(cm)
    # Present classes: 0 and 1. Class 0: p=3/5, r=1; class 1: p=0, r=0, f1=0.
    assert report.precision == pytest.approx((0.6 + 0.0) / 2)
    assert report.recall == pytest.approx((1.0 + 0.0) / 2)
    assert report.f1 == pytest.approx((0.75 + 0.0) / 2)


def test_metrics_pure():
    cm = np.array([[3, 1], [2, 4]])
    assert metrics(cm) == metrics(cm)


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        cm = rng.integers(0, 9, (k, k))
        if cm.sum() == 0:
            continue
        perm = rng.permutation(k)
        permuted = cm[np.ix_(perm, perm)]
        a, b = metrics(cm), metrics(permuted)
        assert a.accuracy == pytest.approx(b.accuracy)
        assert a.precision == pytest.approx(b.precision)
        assert a.recall == pytest.approx(b.recall)
        assert a.f1 == pytest.approx(b.f1)


def test_f1_between_precision_and_recall_per_class():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, r = rng.uniform(0.01, 1.0, 2)
        f1 = 2 * p * r / (p + r)
        assert min(p, r) <= f1 <= max(p, r)


def test_accuracy_matches_per_example_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        spec, params, dataset = random_instance(rng)
        report = evaluate(spec, params, dataset)
        predictions = predict_classes(spec, params, dataset.features)
        expected = float(np.mean(predictions == dataset.labels))
        assert report.accuracy == pytest.approx(expected, abs=1e-15)


def test_empty_confusion_rejected():
    with pytest.raises(ValueError):
        metrics(np.zeros((3, 3), dtype=int))


def test_trace_parameters():
    params = np.array([1.0, 2.0, 3.0])
    assert trace_parameters(params, []).tolist() == []
    assert trace_parameters(params, [2, 0]).tolist() == [3.0, 1.0]
    assert trace_parameters(params, range(3)).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(IndexError):
        trace_parameters(params, [3])
