"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Regression goldens were frozen from the first verified run of the
bundled configs on the reference environment.
"""

import csv
import itertools
import threading
import time

import numpy as np
import pytest

from fedmesh.cli import main
from fedmesh.config import config_hash, load_config
from fedmesh.data import builtin_recipe, synthesize
from fedmesh.experiment import build_engine
from fedmesh.federation import (
    AggregationPolicy,
    ClientState,
    ClientUpdate,
    FederationEngine,
    TrainingSchedule,
    _combined_delta,
    learning_rate_at,
    policy_coefficients,
)
from fedmesh.model import ModelSpec, gradient, init_params, loss
from fedmesh.outputs import write_run_artifacts
from fedmesh.privacy import (
    MECHANISM_NONE,
    NoiseReceipt,
    PrivacyBudget,
    calibrate_sigma,
    clip,
    privatize,
)
from fedmesh.secure_sum import (
    FixedPointCodec,
    PairwiseSeedMatrix,
    SecureSumAbort,
    mask,
    unmask_sum,
)
from fedmesh.transport import (
    FederationClient,
    FederationServer,
    FrameDecoder,
    FrameError,
    encode_global_model,
)

from conftest import random_instance

CONFIG = "configs/three_domains.cfg"
IID_CONFIG = "configs/iid_baseline.cfg"

# Frozen after the first verified run (seed 42, DP off, 100 rounds).
ROUND_100_LOSS_GOLDENS = {
    "financial": 0.06112372764954008,
    "medical": 0.0888713330685941,
    "user": 0.13946823278119955,
}
# Frozen after the first verified run of the IID federated-vs-pooled pair.
IID_FEDERATED_ACC_GOLDEN = 0.9575
IID_BASELINE_ACC_GOLDEN = 0.9575

_cache: dict = {}


def _fig_run():
    """The 100-round, DP-off run on the bundled domains (shared by 6 and 7)."""
    if "fig" not in _cache:
        config = load_config(CONFIG, overrides=["privacy.enabled=false"])
        started = time.monotonic()
        reports = build_engine(config).run()
        _cache["fig"] = (reports, time.monotonic() - started)
    return _cache["fig"]


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        spec, params, dataset = random_instance(rng)
        analytic = gradient(spec, params, dataset)
        h = 1e-5
        numeric = np.empty_like(analytic)
        for i in range(len(params)):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (loss(spec, up, dataset) - loss(spec, down, dataset)) / (2 * h)
        scale = np.maximum(np.abs(numeric), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    elapsed = time.monotonic() - started
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"\n[criterion 1] PASS gradient vs finite differences: max rel err {worst:.3e} in {elapsed:.2f}s")


def test_criterion_2_one_client_oracle():
    started = time.monotonic()
    spec = ModelSpec(feature_dim=2, class_count=3)
    data = synthesize(builtin_recipe("medical"), 200, seed=4)
    schedule = TrainingSchedule(rounds=50, local_epochs=5, learning_rate=0.1, lr_decay=0.99)
    held_out = synthesize(builtin_recipe("medical"), 80, seed=10_004)
    engine = FederationEngine(
        spec,
        [ClientState(0, "medical", data, PrivacyBudget(enabled=False))],
        schedule,
        AggregationPolicy(),
        run_seed=1234,
        eval_sets={"medical": held_out},
    )
    assert np.array_equal(engine.pooled_test.features, held_out.features)
    assert np.array_equal(engine.pooled_test.labels, held_out.labels)
    # Independent oracle: plain full-batch descent, round-grouped lr decay.
    theta = init_params(spec)
    for t in range(schedule.rounds):
        lr = learning_rate_at(schedule, t)
        for _ in range(schedule.local_epochs):
            theta = theta - lr * gradient(spec, theta, data)
        engine.run_round()
        assert np.array_equal(engine.params, theta), f"trajectory diverged at round {t}"
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\n[criterion 2] PASS one-client trajectory bitwise-equal over 50 rounds in {elapsed:.2f}s")


def test_criterion_3_aggregation_algebra():
    rng = np.random.default_rng(33)
    sizes = {cid: int(rng.integers(1, 500)) for cid in range(6)}
    weights = {cid: float(rng.uniform(0.05, 9.0)) for cid in range(6)}
    receipt = NoiseReceipt(sigma=0.0, clip_applied=False, pre_clip_norm=0.0, mechanism=MECHANISM_NONE)

    def update(cid):
        return ClientUpdate(
            client_id=cid,
            round_index=0,
            delta=rng.normal(0, 1, 6),
            sample_count=sizes[cid],
            loss_before=1.0,
            loss_after=0.9,
            receipt=receipt,
        )

    policies = {
        "uniform": AggregationPolicy("uniform"),
        "size_weighted": AggregationPolicy("size_weighted"),
        "custom_weighted": AggregationPolicy("custom_weighted", weights=weights),
    }
    theta = rng.normal(0, 1, 6)
    subsets = permutations_checked = 0
    for r in range(1, 7):
        for subset in itertools.combinations(range(6), r):
            updates = [update(cid) for cid in subset]
            for name, policy in policies.items():
                coeffs = policy_coefficients(
                    policy, {u.client_id: u.sample_count for u in updates if not u.diverged}
                )
                values = np.array([coeffs[cid] for cid in subset])
                assert np.all(values >= 0), (name, subset)
                assert abs(values.sum() - 1.0) <= 1e-12, (name, subset)
                counts = {u.client_id: u.sample_count for u in updates}
                reference = theta + _combined_delta(updates, policy_coefficients(policy, counts))
                shuffled = list(updates)
                rng.shuffle(shuffled)
                stepped = theta + _combined_delta(shuffled, policy_coefficients(policy, counts))
                assert np.array_equal(stepped, reference)
                permutations_checked += 1
            scaled = AggregationPolicy(
                "custom_weighted", weights={k: 7.3 * w for k, w in weights.items()}
            )
            counts = {u.client_id: u.sample_count for u in updates if not u.diverged}
            base_coeffs = policy_coefficients(policies["custom_weighted"], counts)
            scaled_coeffs = policy_coefficients(scaled, counts)
            for cid in subset:
                assert scaled_coeffs[cid] == pytest.approx(base_coeffs[cid], abs=1e-12)
            subsets += 1
    print(
        f"\n[criterion 3] PASS aggregation algebra over {subsets} subsets x 3 policies "
        f"({permutations_checked} permutation checks)"
    )


def test_criterion_4_secure_sum_exactness():
    started = time.monotonic()
    codec = FixedPointCodec(scale_bits=24)
    rng = np.random.default_rng(44)
    trials = 0
    for n in range(1, 9):
        matrix = PairwiseSeedMatrix.from_root_seed(n, range(n))
        for dim in (1, 7, 64):
            for trial in range(50):
                vectors = [rng.uniform(-100, 100, dim) for _ in range(n)]
                encodeds = [codec.encode(v) for v in vectors]
                shares = [
                    mask(e, i, matrix, range(n), round_index=trial)
                    for i, e in enumerate(encodeds)
                ]
                masked_sum = np.zeros(dim, dtype=np.uint64)
                encoded_sum = np.zeros(dim, dtype=np.uint64)
                for share, encoded in zip(shares, encodeds):
                    masked_sum += share.masked_values
                    encoded_sum += encoded
                assert np.array_equal(masked_sum, encoded_sum)  # exact, mod 2^64
                decoded = unmask_sum(shares, codec, range(n))
                direct = np.sum(vectors, axis=0)
                assert np.max(np.abs(decoded - direct)) <= n * 2.0**-23
                trials += 1
    # Any missing share aborts with no output.
    matrix = PairwiseSeedMatrix.from_root_seed(3, range(3))
    shares = [
        mask(codec.encode(np.ones(4)), i, matrix, range(3), round_index=0) for i in range(2)
    ]
    with pytest.raises(SecureSumAbort):
        unmask_sum(shares, codec, range(3))
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"\n[criterion 4] PASS secure-sum exactness over {trials} trials in {elapsed:.2f}s")


def test_criterion_5_dp_mechanism():
    rng = np.random.default_rng(55)
    # 10^4 vectors, mostly small dims with a sparse sample up to dim 10^4.
    dims = np.concatenate(
        [rng.integers(1, 64, 9_900), rng.integers(64, 10_001, 100)]
    )
    for dim in dims:
        clip_norm = float(rng.uniform(0.05, 10.0))
        clipped, _, _ = clip(rng.normal(0, 3, int(dim)), clip_norm)
        assert float(np.linalg.norm(clipped)) <= clip_norm + 1e-12

    budget = PrivacyBudget(epsilon=2.0, delta=1e-5, clip_norm=0.5)
    sigma = calibrate_sigma(budget)
    draws = np.stack(
        [privatize(np.zeros(100), budget, seed=s)[0] for s in range(1000)]
    )
    empirical = float(draws.std())
    assert abs(empirical - sigma) <= 0.10 * sigma

    oracle = calibrate_sigma(PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=1.0))
    assert oracle == pytest.approx(4.8448, abs=1e-3)
    print(
        f"\n[criterion 5] PASS DP mechanism: clip bound held, empirical std {empirical:.4f} "
        f"vs sigma {sigma:.4f}, oracle sigma {oracle:.5f}"
    )


def test_criterion_6_loss_decline_and_stabilization():
    reports, elapsed = _fig_run()
    assert len(reports) == 100
    assert elapsed < 60.0
    for tag, golden in ROUND_100_LOSS_GOLDENS.items():
        first = reports[0].domain_losses[tag]
        last = reports[-1].domain_losses[tag]
        assert last < first, tag
        tail = [r.domain_losses[tag] for r in reports[80:]]
        assert max(tail) - min(tail) < 0.05 * first, tag
        assert last == pytest.approx(golden, rel=1e-9), tag  # regression golden
    print(f"\n[criterion 6] PASS loss decline + stabilization on 3 domains in {elapsed:.2f}s")


def test_criterion_7_parameter_stabilization():
    reports, _ = _fig_run()
    domain_tags = sorted(set(reports[0].tracked) - {"global"})
    assert domain_tags == ["financial", "medical", "user"]
    worst = 0.0
    for tag in domain_tags:
        series = np.array([r.tracked[tag] for r in reports])
        early = series[0:10].std(axis=0)
        late = series[90:100].std(axis=0)
        ratio = float(np.max(late / early))
        worst = max(worst, ratio)
        assert ratio < 0.25, (tag, ratio)
    print(f"\n[criterion 7] PASS tracked-parameter fluctuation ratio {worst:.3f} < 0.25")


def test_criterion_8_cross_mode_equivalence(tmp_path):
    started = time.monotonic()
    overrides = [
        "secure_aggregation=true",
        "schedule.rounds=10",
        "transport.timeout_seconds=15",
    ]
    config = load_config(CONFIG, overrides=overrides)

    sim_engine = build_engine(config)
    sim_engine.run()

    srv_engine = build_engine(config)
    server = FederationServer(srv_engine, config_hash(config), port=0, timeout=15)
    addr = server.address
    errors = []

    def serve():
        try:
            server.wait_for_clients()
            server.run()
        except Exception as exc:
            errors.append(exc)

    def join(cid):
        try:
            FederationClient(build_engine(config), cid, config_hash(config), addr, timeout=15).run()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=serve)] + [
        threading.Thread(target=join, args=(cid,)) for cid in (0, 1, 2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    server.close()
    assert errors == []
    assert np.array_equal(srv_engine.params, sim_engine.params)  # bitwise final model

    from datetime import datetime, timezone

    stamp = datetime.now(timezone.utc)
    sim_dir, srv_dir = tmp_path / "sim", tmp_path / "srv"
    sim_dir.mkdir(), srv_dir.mkdir()
    write_run_artifacts(sim_dir, config, sim_engine.reports, stamp)
    write_run_artifacts(srv_dir, config, srv_engine.reports, stamp)
    for name in ("metrics.csv", "loss_curves.csv", "param_trace.csv", "clients.csv"):
        assert (sim_dir / name).read_bytes() == (srv_dir / name).read_bytes(), name
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"\n[criterion 8] PASS simulate == serve+join bitwise (N=3, T=10, masked) in {elapsed:.2f}s")


def test_criterion_9_wire_robustness():
    rng = np.random.default_rng(99)
    crashes = 0
    for _ in range(100_000):
        buf = rng.bytes(int(rng.integers(0, 64)))
        try:
            FrameDecoder().feed(buf)
        except FrameError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0

    # A GLOBAL_MODEL payload opens with the parameter block: u32 dim, then binary64s.
    def params_block(values):
        return encode_global_model(values, 0.0, 0, [])[: 4 + 8 * len(values)]

    assert params_block(np.empty(0)) == bytes.fromhex("00000000")
    assert params_block(np.array([1.0])) == bytes.fromhex("000000013ff0000000000000")
    assert params_block(np.array([1.0, -2.0])) == bytes.fromhex(
        "000000023ff0000000000000c000000000000000"
    )
    print("\n[criterion 9] PASS decoder fuzz (100000 buffers, 0 crashes) + golden byte vectors")


def test_criterion_10_metrics_table_and_baseline_gap(tmp_path):
    out = tmp_path / "fed"
    assert main(["simulate", "--config", IID_CONFIG, "--out", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["round", "accuracy", "precision", "recall", "f1"]
    assert len(rows) == 1 + 30  # one row per round
    federated_acc = float(rows[-1][1])

    base_out = tmp_path / "base"
    assert main(["baseline", "--config", IID_CONFIG, "--out", str(base_out)]) == 0
    with open(base_out / "baseline_metrics.csv", newline="") as handle:
        base_rows = list(csv.reader(handle))
    assert base_rows[0] == rows[0]
    baseline_acc = float(base_rows[-1][1])

    gap = abs(federated_acc - baseline_acc)
    assert gap <= 0.03
    # Regression goldens from the first verified run.
    assert federated_acc == pytest.approx(IID_FEDERATED_ACC_GOLDEN, abs=1e-12)
    assert baseline_acc == pytest.approx(IID_BASELINE_ACC_GOLDEN, abs=1e-12)
    print(
        f"\n[criterion 10] PASS metrics table emitted; federated {federated_acc:.4f} vs "
        f"pooled {baseline_acc:.4f} (gap {gap:.4f} <= 0.03)"
    )
