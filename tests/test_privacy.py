import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.privacy import (
    NoiseReceipt,
    PrivacyBudget,
    calibrate_sigma,
    clip,
    privatize,
)


def test_clip_inside_ball_unchanged():
    vector = np.array([3.0, 4.0])
    clipped, applied, norm = clip(vector, 10.0)
    assert clipped is vector
    assert not applied
    assert norm == 5.0


def test_clip_scales_onto_ball():
    clipped, applied, norm = clip(np.array([3.0, 4.0]), 1.0)
    np.testing.assert_allclose(clipped, [0.6, 0.8], rtol=1e-15)
    assert applied and norm == 5.0


@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.01, max_value=50.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_clip_norm_property(dim, clip_norm, seed):
    vector = np.random.default_rng(seed).normal(0, 10, dim)
    clipped, _, pre = clip(vector, clip_norm)
    # Post-clip norm is min(pre, C), recomputed with a scalar loop.
    post = math.sqrt(sum(float(v) ** 2 for v in clipped))
    assert post <= clip_norm + 1e-12
    assert post == pytest.approx(min(pre, clip_norm), abs=1e-12)


def test_clip_rejects_non_finite():
    with pytest.raises(ValueError):
        clip(np.array([np.nan, 1.0]), 1.0)


@pytest.mark.parametrize("dim", [1, 10, 1000, 10_000])
def test_clip_norm_bound_across_dims(dim):
    rng = np.random.default_rng(dim)
    for clip_norm in (0.01, 1.0, 250.0):
        clipped, _, _ = clip(rng.normal(0, 5, dim), clip_norm)
        assert float(np.linalg.norm(clipped)) <= clip_norm + 1e-12


def test_sigma_oracle_value():
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=1.0)
    # Independent evaluation: sqrt(2 * ln(1.25e5)) = 4.84480...
    assert calibrate_sigma(budget) == pytest.approx(4.8448, abs=1e-3)


def test_sigma_homogeneity():
    base = calibrate_sigma(PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=1.0))
    assert calibrate_sigma(PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=2.0)) == pytest.approx(
        2 * base, rel=1e-12
    )
    assert calibrate_sigma(PrivacyBudget(epsilon=2.0, delta=1e-5, clip_norm=1.0)) == pytest.approx(
        base / 2, rel=1e-12
    )


def test_sigma_monotone_in_budget():
    base = PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=1.0)
    assert calibrate_sigma(PrivacyBudget(epsilon=0.5, delta=1e-5, clip_norm=1.0)) >= calibrate_sigma(base)
    assert calibrate_sigma(PrivacyBudget(epsilon=1.0, delta=1e-6, clip_norm=1.0)) >= calibrate_sigma(base)
    assert calibrate_sigma(PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=3.0)) >= calibrate_sigma(base)


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(epsilon=0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(delta=1.5)
    with pytest.raises(ValueError):
        PrivacyBudget(clip_norm=-1.0)


@pytest.mark.parametrize(
    "budget",
    [
        {"epsilon": math.inf},
        {"epsilon": math.nan},
        {"clip_norm": math.inf},
        {"epsilon": 1e-320},  # sigma overflows
        {"delta": 1e-320},  # ln(1.25/delta) overflows
        {"clip_norm": 1e308},  # sigma overflows
        {"clip_norm": 5e-324, "epsilon": 1e6},  # sigma underflows to 0
    ],
)
def test_budget_rejects_a_sigma_that_is_not_finite_and_positive(budget):
    with pytest.raises(ValueError, match="finite and > 0"):
        PrivacyBudget(**budget)


def test_budget_construction_logs_nothing(caplog):
    PrivacyBudget(epsilon=987.0)
    assert caplog.records == []


def test_privatize_noise_deterministic():
    vector, budget = np.zeros(32), PrivacyBudget()
    a, _ = privatize(vector, budget, seed=77)
    b, _ = privatize(vector, budget, seed=77)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, privatize(vector, budget, seed=78)[0])


def test_privatize_noise_moments():
    # This clip norm calibrates sigma to 1; a zero update is not clipped, so the output is the noise.
    budget = PrivacyBudget(clip_norm=1.0 / math.sqrt(2.0 * math.log(1.25 / 1e-5)))
    noise, receipt = privatize(np.zeros(10_000), budget, seed=123)
    assert receipt.sigma == pytest.approx(1.0)
    assert abs(float(noise.mean())) < 0.05
    assert abs(float(noise.std()) - receipt.sigma) < 0.05


def test_privatize_disabled_is_identity():
    vector = np.array([1.0, -2.0, 0.5])
    out, receipt = privatize(vector, PrivacyBudget(enabled=False), seed=1)
    assert out is vector
    assert receipt.mechanism == "none"
    assert receipt.sigma == 0.0


def test_privatize_small_noise_stays_close():
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=1e6)
    vector = np.linspace(-1, 1, 50)
    out, receipt = privatize(vector, budget, seed=5)
    assert receipt.mechanism == "gaussian"
    assert not receipt.clip_applied
    assert np.all(np.abs(out - vector) < 6 * receipt.sigma)


def test_privatize_noise_std_matches_sigma():
    budget = PrivacyBudget(epsilon=2.0, delta=1e-5, clip_norm=0.5)
    vector = np.zeros(100)
    sigma = calibrate_sigma(budget)
    draws = np.stack([privatize(vector, budget, seed=s)[0] for s in range(1000)])
    assert abs(float(draws.std()) - sigma) < 0.1 * sigma


def test_distinct_seeds_give_distinct_noise():
    budget = PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=1.0)
    vector = np.zeros(8)
    outs = [privatize(vector, budget, seed=s)[0] for s in range(6)]
    for i in range(len(outs)):
        for j in range(i + 1, len(outs)):
            assert not np.array_equal(outs[i], outs[j])


def test_receipt_invariant():
    with pytest.raises(ValueError):
        NoiseReceipt(sigma=0.0, clip_applied=False, pre_clip_norm=1.0, mechanism="gaussian")
    with pytest.raises(ValueError):
        NoiseReceipt(sigma=1.0, clip_applied=False, pre_clip_norm=1.0, mechanism="none")
