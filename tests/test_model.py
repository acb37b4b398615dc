import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.model import (
    Dataset,
    ModelSpec,
    batch_logits,
    gradient,
    init_params,
    loss,
    mean_loss,
    param_dim,
    predict_classes,
    row_losses,
    step,
    unpack,
)

from conftest import random_instance


@pytest.mark.parametrize(
    "d,k,expected", [(2, 2, 6), (1, 3, 6), (10, 4, 44)]
)
def test_param_dim(d, k, expected):
    assert param_dim(ModelSpec(feature_dim=d, class_count=k)) == expected


def test_zero_params_give_zero_logits(spec):
    logits = batch_logits(spec, init_params(spec), np.array([[1.5, -2.0]]))
    assert np.array_equal(logits, np.zeros((1, 3)))


def test_logits_single_feature_two_classes():
    spec = ModelSpec(feature_dim=1, class_count=2)
    # class 0: w=1, b=0; class 1: w=-1, b=0
    params = np.array([1.0, 0.0, -1.0, 0.0])
    logits = batch_logits(spec, params, np.array([[2.0]]))
    assert np.array_equal(logits, np.array([[2.0, -2.0]]))
    assert predict_classes(spec, params, np.array([[2.0]]))[0] == 0


def test_logits_match_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spec, params, _ = random_instance(rng)
        x = rng.normal(0, 1, spec.feature_dim)
        logits = batch_logits(spec, params, x[None, :])[0]
        # Brute-force dot products, coordinate by coordinate.
        expected = np.empty(spec.class_count)
        for k in range(spec.class_count):
            base = k * (spec.feature_dim + 1)
            acc = 0.0
            for j in range(spec.feature_dim):
                acc += params[base + j] * x[j]
            expected[k] = acc + params[base + spec.feature_dim]
        np.testing.assert_allclose(logits, expected, rtol=1e-12)


def test_predict_class_tie_breaks_to_lowest(spec):
    assert predict_classes(spec, init_params(spec), np.array([[0.3, 0.3]]))[0] == 0


def test_argmax_examples():
    assert int(np.argmax(np.array([2.0, -2.0]))) == 0
    assert int(np.argmax(np.array([1.0, 1.0, 3.0]))) == 2


def test_predict_class_invariant_to_logit_shift():
    rng = np.random.default_rng(3)
    for _ in range(20):
        spec, params, _ = random_instance(rng)
        x = rng.normal(0, 1, spec.feature_dim)
        shifted = params.copy().reshape(spec.class_count, spec.feature_dim + 1)
        shifted[:, spec.feature_dim] += 5.3  # same constant on every bias
        row = x[None, :]
        assert predict_classes(spec, params, row)[0] == predict_classes(spec, shifted.ravel(), row)[0]


@pytest.mark.parametrize("k", [2, 3, 4, 7])
def test_loss_at_zero_is_ln_k(k):
    rng = np.random.default_rng(k)
    dataset = Dataset(rng.normal(0, 1, (17, 3)), rng.integers(0, k, 17), k)
    spec = ModelSpec(feature_dim=3, class_count=k)
    assert loss(spec, init_params(spec), dataset) == pytest.approx(math.log(k), abs=1e-12)


def test_loss_matches_scalar_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        spec, params, dataset = random_instance(rng)
        value = loss(spec, params, dataset)
        # Naive per-example summation with explicit log-sum-exp.
        total = 0.0
        for x, y in zip(dataset.features, dataset.labels):
            logits = [
                sum(params[k * (spec.feature_dim + 1) + j] * x[j] for j in range(spec.feature_dim))
                + params[k * (spec.feature_dim + 1) + spec.feature_dim]
                for k in range(spec.class_count)
            ]
            m = max(logits)
            lse = m + math.log(sum(math.exp(z - m) for z in logits))
            total += lse - logits[y]
        expected = total / len(dataset)
        if spec.l2_coefficient:
            for k in range(spec.class_count):
                for j in range(spec.feature_dim):
                    expected += 0.5 * spec.l2_coefficient * params[k * (spec.feature_dim + 1) + j] ** 2
        assert value == pytest.approx(expected, rel=1e-12)


def test_gradient_zero_params_single_example():
    spec = ModelSpec(feature_dim=1, class_count=2)
    dataset = Dataset(np.array([[0.0]]), np.array([0]), 2)
    grad = gradient(spec, init_params(spec), dataset)
    # softmax - onehot = (-0.5, +0.5) lands on the two bias slots.
    np.testing.assert_allclose(grad, np.array([0.0, -0.5, 0.0, 0.5]), atol=1e-15)


def _finite_difference(spec, params, dataset, h=1e-5):
    grad = np.empty_like(params)
    for i in range(len(params)):
        up, down = params.copy(), params.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (loss(spec, up, dataset) - loss(spec, down, dataset)) / (2 * h)
    return grad


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        spec, params, dataset = random_instance(rng)
        analytic = gradient(spec, params, dataset)
        numeric = _finite_difference(spec, params, dataset)
        scale = np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    assert worst < 1e-4


def test_gradient_vanishes_at_descent_limit(spec):
    rng = np.random.default_rng(5)
    dataset = Dataset(rng.normal(0, 1, (60, 2)), rng.integers(0, 3, 60), 3)
    reg = ModelSpec(feature_dim=2, class_count=3, l2_coefficient=0.05)
    params = init_params(reg)
    for _ in range(8000):
        params = params - 0.5 * gradient(reg, params, dataset)
    assert np.linalg.norm(gradient(reg, params, dataset)) < 1e-6


def test_loss_is_convex_along_segments():
    rng = np.random.default_rng(31)
    for _ in range(40):
        spec, a, dataset = random_instance(rng)
        b = rng.normal(0, 0.8, a.shape)
        mid = 0.5 * (a + b)
        assert loss(spec, mid, dataset) <= 0.5 * (
            loss(spec, a, dataset) + loss(spec, b, dataset)
        ) + 1e-9


def test_dimension_mismatch_errors(spec):
    with pytest.raises(ValueError):
        loss(spec, np.zeros(4), Dataset(np.zeros((2, 2)), np.array([0, 1]), 3))


def test_dataset_validation():
    with pytest.raises(ValueError, match="empty"):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([0]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 2)), np.array([5]), 2)


# -- the step kernel against the two-pass reference ---------------------------


def _reference_loss(spec, params, dataset):
    """``loss`` as it was before it shared a logits pass with the gradient."""
    logits = batch_logits(spec, params, dataset.features)
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    n = len(dataset)
    ce = float(np.mean(lse - logits[np.arange(n), dataset.labels]))
    if spec.l2_coefficient > 0.0:
        weights, _ = unpack(spec, params)
        ce += 0.5 * spec.l2_coefficient * float(np.sum(weights * weights))
    return ce


def _reference_gradient(spec, params, dataset):
    """``gradient`` as it was before it shared a logits pass with the loss."""
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


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    d=st.integers(1, 40),
    k=st.integers(2, 12),
    l2=st.sampled_from([0.0, 1e-3, 0.5, 7.0]),
    scale=st.sampled_from([0.0, 1e-3, 1.0, 30.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_kernel_is_bitwise_the_two_pass_reference(n, d, k, l2, scale, seed):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(feature_dim=d, class_count=k, l2_coefficient=l2)
    params = rng.normal(0.0, 1.0, param_dim(spec)) * scale
    dataset = Dataset(rng.normal(0.0, 2.0, (n, d)), rng.integers(0, k, n), k)
    want_loss = _reference_loss(spec, params, dataset)
    want_grad = _reference_gradient(spec, params, dataset)

    grad, value = step(spec, params, dataset.features, dataset.labels, with_loss=True)
    assert _bits(grad) == _bits(want_grad)
    assert _bits(value) == _bits(want_loss)
    grad, value = step(spec, params, dataset.features, dataset.labels)
    assert value is None and _bits(grad) == _bits(want_grad)
    assert _bits(gradient(spec, params, dataset)) == _bits(want_grad)
    assert _bits(loss(spec, params, dataset)) == _bits(want_loss)
    cross_entropy, logits = row_losses(spec, params, dataset.features, dataset.labels)
    assert _bits(mean_loss(spec, params, cross_entropy)) == _bits(want_loss)
    assert np.array_equal(np.argmax(logits, axis=1), predict_classes(spec, params, dataset.features))
