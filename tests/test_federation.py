import hashlib
import itertools
import warnings

import numpy as np
import pytest

import fedmesh.federation
from fedmesh.data import builtin_recipe, synthesize
from fedmesh.federation import (
    GLOBAL_TAG,
    AggregationPolicy,
    ClientState,
    ClientUpdate,
    FederationAbort,
    FederationEngine,
    TrainingSchedule,
    _combined_delta,
    _descent_epochs,
    derive_privacy_weights,
    learning_rate_at,
    local_train,
    policy_coefficients,
)
from fedmesh.model import Dataset, ModelSpec, init_params, loss, param_dim
from fedmesh.privacy import MECHANISM_NONE, NoiseReceipt, PrivacyBudget

from conftest import flag_clients

SPEC = ModelSpec(feature_dim=2, class_count=3)
NO_DP = PrivacyBudget(enabled=False)
RECEIPT = NoiseReceipt(sigma=0.0, clip_applied=False, pre_clip_norm=0.0, mechanism=MECHANISM_NONE)


def _update(cid, delta, samples=1, diverged=False):
    return ClientUpdate(
        client_id=cid,
        round_index=0,
        delta=np.asarray(delta, dtype=np.float64),
        sample_count=samples,
        loss_before=1.0,
        loss_after=0.5,
        receipt=RECEIPT,
        diverged=diverged,
    )


def _aggregate(updates, policy, theta):
    """The global step of a round over ``updates``, from ``theta``."""
    counts = {u.client_id: u.sample_count for u in updates}
    return theta + _combined_delta(updates, policy_coefficients(policy, counts))


def _client(cid, tag="medical", n=120, seed=None, budget=NO_DP):
    data = synthesize(builtin_recipe(tag), n, seed if seed is not None else 50 + cid)
    return ClientState(cid, tag, data, budget)


def _engine(clients, schedule, policy=None, run_seed=42, **kwargs):
    eval_sets = {tag: synthesize(builtin_recipe(tag), 90, 900) for tag in {c.domain_tag for c in clients}}
    engine = FederationEngine(
        SPEC,
        clients,
        schedule,
        policy or AggregationPolicy(),
        run_seed,
        eval_sets=eval_sets,
        **kwargs,
    )
    pooled = engine.pooled_test
    assert np.array_equal(pooled.features, np.concatenate([e.features for e in eval_sets.values()]))
    assert np.array_equal(pooled.labels, np.concatenate([e.labels for e in eval_sets.values()]))
    assert pooled.class_count == 3
    return engine


# -- schedules and learning rate ---------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainingSchedule(rounds=0)
    with pytest.raises(ValueError):
        TrainingSchedule(rounds=1, learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainingSchedule(rounds=1, lr_decay=1.5)
    with pytest.raises(ValueError):
        TrainingSchedule(rounds=1, participation_fraction=0.0)


def test_learning_rate_decay():
    schedule = TrainingSchedule(rounds=10, learning_rate=0.2, lr_decay=0.5)
    assert learning_rate_at(schedule, 0) == 0.2
    assert learning_rate_at(schedule, 2) == pytest.approx(0.05)


# -- local training ------------------------------------------------------------


def test_local_train_zero_lr_zero_delta():
    client = _client(0)
    schedule = TrainingSchedule(rounds=1, local_epochs=3, learning_rate=0.0)
    update = local_train(client, init_params(SPEC), schedule, SPEC, 0, run_seed=1)
    # No movement means an exactly-zero delta once DP is off.
    assert np.array_equal(update.delta, np.zeros_like(update.delta))
    assert update.receipt.mechanism == "none"


def test_local_train_zero_lr_dp_on_is_pure_noise():
    from fedmesh.privacy import privatize
    from fedmesh.rng import derive_seed

    budget = PrivacyBudget(epsilon=1.0, delta=1e-5, clip_norm=1.0)
    client = _client(0, budget=budget)
    schedule = TrainingSchedule(rounds=1, local_epochs=3, learning_rate=0.0)
    update = local_train(client, init_params(SPEC), schedule, SPEC, 0, run_seed=1)
    expected, _ = privatize(
        np.zeros_like(update.delta), budget, derive_seed(1, "noise", 0, 0)
    )
    assert np.array_equal(update.delta, expected)


def test_local_train_reduces_local_loss():
    schedule = TrainingSchedule(rounds=1, local_epochs=5, learning_rate=0.01)
    for seed in range(20):
        client = _client(0, seed=seed)
        update = local_train(client, init_params(SPEC), schedule, SPEC, 0, run_seed=9)
        assert update.loss_after <= update.loss_before


def test_local_train_minibatch_deterministic():
    client = _client(0)
    schedule = TrainingSchedule(rounds=1, local_epochs=2, batch_size=32, learning_rate=0.05)
    a = local_train(client, init_params(SPEC), schedule, SPEC, 0, run_seed=3)
    b = local_train(client, init_params(SPEC), schedule, SPEC, 0, run_seed=3)
    assert np.array_equal(a.delta, b.delta)
    c = local_train(client, init_params(SPEC), schedule, SPEC, 1, run_seed=3)
    assert not np.array_equal(a.delta, c.delta)


def test_local_train_minibatch_trajectory_is_pinned():
    # Bytes taken when each minibatch was a validated Dataset.subset and the
    # shuffle seed was derived by local_train.
    reg_spec = ModelSpec(feature_dim=2, class_count=3, l2_coefficient=0.01)
    schedule = TrainingSchedule(rounds=5, local_epochs=2, batch_size=16)
    update = local_train(_client(4), init_params(reg_spec), schedule, reg_spec, 3, run_seed=5)
    assert hashlib.sha256(update.delta.tobytes()).hexdigest() == (
        "d14e522428f30af75362156fdeb25e223d17370fd77f6903b2318c400ab7bd7f"
    )
    assert (update.loss_before, update.loss_after) == (1.0986122886681096, 0.3164765888328228)


def test_local_train_divergence_flags_update():
    # Plain softmax gradients are bounded; the L2 term is what lets an
    # oversized step blow up geometrically to a non-finite trajectory.
    reg_spec = ModelSpec(feature_dim=2, class_count=3, l2_coefficient=1.0)
    client = _client(0)
    schedule = TrainingSchedule(rounds=1, local_epochs=80, learning_rate=1e6)
    update = local_train(client, init_params(reg_spec), schedule, reg_spec, 0, run_seed=2)
    assert update.diverged
    assert np.array_equal(update.delta, np.zeros_like(update.delta))
    assert update.loss_after == float("inf")


@pytest.mark.parametrize(
    "shard,message",
    [
        # Refused at construction, not in local_train during the first round.
        (Dataset(np.zeros((4, 2)), np.arange(4), 4), "client 1: dataset class_count 4 != spec class_count 3"),
        (Dataset(np.zeros((3, 5)), np.arange(3), 3), "client 1: dataset feature_dim 5 != spec feature_dim 2"),
    ],
)
def test_engine_checks_client_shards_against_the_spec(shard, message):
    clients = [_client(0), ClientState(1, "medical", shard, NO_DP)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        _engine(clients, TrainingSchedule(rounds=1))


@pytest.mark.parametrize("index", [-1, 9])
def test_engine_refuses_a_tracked_index_outside_the_parameters(index):
    # Refused at construction, not by trace_parameters in the first round.
    with pytest.raises(ValueError, match="^tracked index out of range for the model$"):
        _engine([_client(0)], TrainingSchedule(rounds=1), tracked_indices=(0, index))


def test_engine_refuses_a_client_tagged_global():
    # The tag names the global model's rows of the parameter trace.
    clients = [_client(0), ClientState(1, GLOBAL_TAG, _client(1).data, NO_DP)]
    with pytest.raises(ValueError, match="client 1 has the reserved domain tag 'global'"):
        FederationEngine(
            SPEC,
            clients,
            TrainingSchedule(rounds=1),
            AggregationPolicy(),
            42,
            eval_sets={"medical": synthesize(builtin_recipe("medical"), 90, 900)},
            tracked_indices=(0, 1),
        )


def test_diverging_round_keeps_loss_before_and_aborts():
    reg_spec = ModelSpec(feature_dim=2, class_count=3, l2_coefficient=1.0)
    clients = [_client(0), _client(1)]
    engine = FederationEngine(
        reg_spec,
        clients,
        TrainingSchedule(rounds=3, learning_rate=0.1),
        AggregationPolicy(),
        42,
        eval_sets={"medical": synthesize(builtin_recipe("medical"), 90, 900)},
    )
    engine.run_round()
    engine.run_round()
    engine.schedule = TrainingSchedule(rounds=3, local_epochs=80, learning_rate=1e6)
    params = engine.params.copy()
    inputs = engine.begin_round(2)
    updates = [engine.run_local(cid, inputs) for cid in (0, 1)]
    # Taken when loss_before came from its own loss() pass before the steps.
    assert [u.loss_before for u in updates] == [0.6678870481203313, 0.6564799853660135]
    assert [u.loss_before for u in updates] == [loss(reg_spec, params, c.data) for c in clients]
    for update in updates:
        assert update.diverged and update.loss_after == float("inf")
        assert np.array_equal(update.delta, np.zeros_like(params))
    with pytest.raises(FederationAbort, match=r"^round 2: no non-flagged updates to aggregate$"):
        engine.run_round()
    assert len(engine.reports) == 2
    assert np.array_equal(engine.params, params)


@pytest.mark.parametrize("batch_size", [None, 50])
@pytest.mark.parametrize(
    "l2,scale",
    [
        (1.0, 1e160),  # the loss's l2 term overflows: loss() warns
        (1e300, 1e10),  # only the gradient's l2 term overflows: loss() is quiet
    ],
)
def test_first_step_loss_warns_as_loss_does(l2, scale, batch_size):
    spec = ModelSpec(feature_dim=2, class_count=3, l2_coefficient=l2)
    data = _client(0).data
    params = np.full(param_dim(spec), scale)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        expected = loss(spec, params, data)
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        _, value = _descent_epochs(spec, data, params, 3, 0.1, batch_size, 7, 0, 0)
    assert value == expected
    assert [(w.category, str(w.message)) for w in got] == [(w.category, str(w.message)) for w in want]


# -- aggregation ---------------------------------------------------------------


def test_identical_deltas_move_global_by_delta():
    delta = np.array([0.25, -1.5, 3.0])
    theta = np.array([1.0, 1.0, 1.0])
    for policy in (
        AggregationPolicy("uniform"),
        AggregationPolicy("size_weighted"),
        AggregationPolicy("custom_weighted", weights={0: 1.0, 1: 2.0, 2: 3.0}),
    ):
        updates = [_update(cid, delta, samples=cid + 1) for cid in range(3)]
        out = _aggregate(updates, policy, theta)
        np.testing.assert_allclose(out, theta + delta, rtol=1e-12)


def test_size_weighted_hand_example():
    updates = [_update(0, [2.0, 0.0], samples=1), _update(1, [0.0, 2.0], samples=3)]
    out = _aggregate(updates, AggregationPolicy("size_weighted"), np.zeros(2))
    np.testing.assert_allclose(out, [0.5, 1.5], rtol=1e-15)


def test_coefficients_convex_over_all_policies_and_subsets():
    rng = np.random.default_rng(8)
    sizes = {cid: int(rng.integers(1, 400)) for cid in range(6)}
    weights = {cid: float(rng.uniform(0.1, 5.0)) for cid in range(6)}
    policies = [
        AggregationPolicy("uniform"),
        AggregationPolicy("size_weighted"),
        AggregationPolicy("custom_weighted", weights=weights),
    ]
    for r in range(1, 7):
        for subset in itertools.combinations(range(6), r):
            updates = [_update(cid, rng.normal(0, 1, 4), samples=sizes[cid]) for cid in subset]
            for policy in policies:
                coeffs = policy_coefficients(
                    policy, {u.client_id: u.sample_count for u in updates if not u.diverged}
                )
                values = np.array([coeffs[cid] for cid in subset])
                assert np.all(values >= 0)
                assert abs(values.sum() - 1.0) <= 1e-12


def test_aggregate_permutation_invariant_bitwise():
    rng = np.random.default_rng(9)
    updates = [_update(cid, rng.normal(0, 1, 5), samples=cid + 2) for cid in range(5)]
    theta = rng.normal(0, 1, 5)
    reference = _aggregate(updates, AggregationPolicy("size_weighted"), theta)
    for _ in range(10):
        rng.shuffle(updates)
        assert np.array_equal(_aggregate(updates, AggregationPolicy("size_weighted"), theta), reference)


def test_custom_weight_scaling_invariance():
    rng = np.random.default_rng(10)
    weights = {cid: float(rng.uniform(0.5, 2.0)) for cid in range(4)}
    updates = [_update(cid, rng.normal(0, 1, 3)) for cid in range(4)]
    counts = {u.client_id: u.sample_count for u in updates if not u.diverged}
    base = policy_coefficients(AggregationPolicy("custom_weighted", weights=weights), counts)
    for c in (0.25, 3.0, 1e6):
        scaled = policy_coefficients(
            AggregationPolicy("custom_weighted", weights={k: c * w for k, w in weights.items()}),
            counts,
        )
        for cid in weights:
            assert scaled[cid] == pytest.approx(base[cid], abs=1e-12)


def test_flagged_updates_excluded_and_renormalized():
    updates = [
        _update(0, [1.0, 0.0], samples=10),
        _update(1, [0.0, 1.0], samples=10, diverged=True),
        _update(2, [3.0, 0.0], samples=30),
    ]
    out = _aggregate(updates, AggregationPolicy("size_weighted"), np.zeros(2))
    # Only clients 0 and 2 count: weights 10/40 and 30/40.
    np.testing.assert_allclose(out, [0.25 * 1.0 + 0.75 * 3.0, 0.0], rtol=1e-12)


def test_aggregate_errors():
    with pytest.raises(ValueError, match="no non-flagged"):
        _aggregate([_update(0, [1.0], diverged=True)], AggregationPolicy(), np.zeros(1))
    with pytest.raises(ValueError, match="total weight must be finite and > 0"):
        _aggregate(
            [_update(0, [1.0])],
            AggregationPolicy("custom_weighted", weights={0: 0.0}),
            np.zeros(1),
        )
    with pytest.raises(ValueError, match="missing a weight"):
        _aggregate(
            [_update(0, [1.0])],
            AggregationPolicy("custom_weighted", weights={1: 1.0}),
            np.zeros(1),
        )


# -- privacy-derived weights ---------------------------------------------------


def test_privacy_weights_equal_budgets_reduce_to_size_weighted():
    budget = PrivacyBudget(epsilon=2.0, delta=1e-5, clip_norm=1.0)
    clients = [_client(0, n=100, budget=budget), _client(1, n=300, budget=budget)]
    weights = derive_privacy_weights(clients)
    assert weights[0] == pytest.approx(0.25)
    assert weights[1] == pytest.approx(0.75)


def test_privacy_weights_hand_example():
    clients = [
        _client(0, n=100, budget=PrivacyBudget(epsilon=1.0)),
        _client(1, n=100, budget=PrivacyBudget(epsilon=8.0)),
        _client(2, n=100, budget=PrivacyBudget(enabled=False)),
    ]
    weights = derive_privacy_weights(clients, epsilon_cap=8.0)
    assert weights[0] == pytest.approx(0.0588, abs=1e-4)
    assert weights[1] == pytest.approx(0.4706, abs=1e-4)
    assert weights[2] == pytest.approx(0.4706, abs=1e-4)


def test_privacy_weights_epsilon_to_zero_limit():
    clients = [
        _client(0, n=100, budget=PrivacyBudget(epsilon=1e-9)),
        _client(1, n=100, budget=PrivacyBudget(epsilon=8.0)),
    ]
    weights = derive_privacy_weights(clients)
    assert weights[0] < 1e-9
    assert weights[1] == pytest.approx(1.0, abs=1e-9)


def test_engine_derives_privacy_weights_from_its_clients():
    clients = [
        _client(0, n=100, budget=PrivacyBudget(epsilon=1.0)),
        _client(1, n=300, budget=PrivacyBudget(epsilon=8.0)),
        _client(2, n=200, budget=NO_DP),
    ]
    policy = AggregationPolicy("custom_weighted", privacy_derived=True)
    # Given out of id order, the engine still derives the weights in id order.
    engine = _engine(clients[::-1], TrainingSchedule(rounds=1), policy=policy)
    custom = AggregationPolicy("custom_weighted", weights=derive_privacy_weights(clients, 8.0))
    counts = {c.client_id: len(c.data) for c in clients}
    assert engine.begin_round(0).coefficients == policy_coefficients(custom, counts)


def test_privacy_derived_policy_refuses_weights():
    with pytest.raises(ValueError, match="weights must be null when privacy_derived derives them"):
        AggregationPolicy("custom_weighted", weights={0: 1.0, 1: 0.0}, privacy_derived=True)


# -- engine rounds ---------------------------------------------------------------


def test_run_deterministic_reports():
    clients = [_client(i, tag) for i, tag in enumerate(["medical", "financial", "user"])]
    schedule = TrainingSchedule(rounds=6, local_epochs=3)
    a = _engine(clients, schedule).run()
    b = _engine([_client(i, t) for i, t in enumerate(["medical", "financial", "user"])], schedule).run()
    for ra, rb in zip(a, b):
        assert ra == rb


def test_global_loss_non_increasing_with_small_lr():
    clients = [_client(i, tag) for i, tag in enumerate(["medical", "financial", "user"])]
    schedule = TrainingSchedule(rounds=25, local_epochs=3, learning_rate=0.05, lr_decay=1.0)
    reports = _engine(clients, schedule).run()
    losses = [r.global_loss for r in reports]
    for earlier, later in zip(losses, losses[1:]):
        assert later <= earlier + 1e-9


def test_participation_sampling_deterministic_and_sized():
    clients = [_client(i) for i in range(5)]
    schedule = TrainingSchedule(rounds=3, participation_fraction=0.5)
    engine = _engine(clients, schedule)
    first = engine.participants(0)
    assert len(first) == 3  # ceil(0.5 * 5)
    assert first == engine.participants(0)
    assert first == sorted(first)
    seen = {tuple(engine.participants(t)) for t in range(20)}
    assert len(seen) > 1  # different rounds sample different subsets


def test_full_participation_full_batch_round_draws_nothing(monkeypatch):
    labels = []
    derive = fedmesh.federation.derive_seed

    def recording_derive(root, *path):
        labels.append(path[0])
        return derive(root, *path)

    def refuse(seed):
        raise AssertionError("a full, full-batch round without privacy needs no generator")

    monkeypatch.setattr(fedmesh.federation, "derive_seed", recording_derive)
    monkeypatch.setattr(fedmesh.federation, "generator", refuse)
    engine = _engine([_client(0), _client(1)], TrainingSchedule(rounds=2))
    engine.run()
    assert engine.participants(1) == [0, 1]
    assert "shuffle" not in labels and "participation" not in labels


def test_partial_participation_round_runs():
    clients = [_client(i) for i in range(4)]
    schedule = TrainingSchedule(rounds=2, participation_fraction=0.5, local_epochs=2)
    engine = _engine(clients, schedule)
    report = engine.run_round()
    participated = [r.client_id for r in report.clients if r.participated]
    assert len(participated) == 2
    idle = [r for r in report.clients if not r.participated]
    assert all(np.isnan(r.loss_before) for r in idle)


@pytest.mark.parametrize("kind", ["uniform", "size_weighted"])
def test_secure_matches_plaintext_within_fixed_point_bound(kind):
    def build(secure):
        clients = [_client(i, tag) for i, tag in enumerate(["medical", "financial", "user"])]
        return _engine(
            clients,
            TrainingSchedule(rounds=1, local_epochs=4),
            policy=AggregationPolicy(kind),
            secure_aggregation=secure,
        )

    plain, masked = build(False), build(True)
    plain.run_round()
    masked.run_round()
    assert np.max(np.abs(plain.params - masked.params)) <= 3 * 2.0**-23


def test_flagged_client_renormalizes_alike_in_plain_and_secure_rounds():
    def build(secure):
        clients = [_client(i, tag) for i, tag in enumerate(["medical", "financial", "user"])]
        engine = _engine(
            clients,
            TrainingSchedule(rounds=1, local_epochs=4),
            policy=AggregationPolicy("size_weighted"),
            secure_aggregation=secure,
        )
        return flag_clients(engine, {1})

    plain, masked = build(False), build(True)
    # The two remaining clients form a convex combination on their own.
    inputs = plain.begin_round(0)
    survivors = [plain.run_local(cid, inputs) for cid in (0, 2)]
    expected = _aggregate(survivors, AggregationPolicy("size_weighted"), plain.params)
    plain_report = plain.run_round()
    masked.run_round()
    assert [r.diverged for r in plain_report.clients] == [False, True, False]
    np.testing.assert_allclose(plain.params, expected, rtol=1e-12, atol=1e-15)
    assert np.max(np.abs(plain.params - masked.params)) <= 3 * 2.0**-23


@pytest.mark.parametrize("secure", [False, True])
def test_all_flagged_round_aborts(secure):
    clients = [_client(i) for i in range(3)]
    engine = _engine(clients, TrainingSchedule(rounds=1, local_epochs=1), secure_aggregation=secure)
    flag_clients(engine, {0, 1, 2})
    with pytest.raises(FederationAbort, match="no non-flagged"):
        engine.run_round()


def test_custom_weights_whose_total_overflows_abort_the_round():
    # Each weight is finite, but their sum is inf: every coefficient would be 0.
    clients = [_client(i) for i in range(2)]
    policy = AggregationPolicy("custom_weighted", weights={0: 1e308, 1: 1e308})
    engine = _engine(clients, TrainingSchedule(rounds=1), policy=policy)
    with pytest.raises(FederationAbort, match="round 0: total weight must be finite and > 0, not inf"):
        engine.run_round()


def test_custom_policy_takes_explicit_weights():
    clients = [_client(i) for i in range(3)]
    policy = AggregationPolicy("custom_weighted", weights={0: 1.0, 1: 2.0, 2: 5.0})
    engine = _engine(clients, TrainingSchedule(rounds=1), policy=policy)
    assert engine.begin_round(0).coefficients == {0: 0.125, 1: 0.25, 2: 0.625}
    clients = [_client(i) for i in range(2)]  # no weights anywhere
    with pytest.raises(ValueError, match="needs weights"):
        _engine(clients, TrainingSchedule(rounds=1), policy=AggregationPolicy("custom_weighted"))


def test_complete_round_with_a_missing_share_raises_federation_abort():
    clients = [_client(i) for i in range(3)]
    engine = _engine(clients, TrainingSchedule(rounds=1, local_epochs=1), secure_aggregation=True)
    inputs = engine.begin_round(0)
    # The last participant's update, and so its share, is missing.
    inputs.updates = [engine.run_local(cid, inputs) for cid in inputs.participant_ids[:-1]]
    with pytest.raises(FederationAbort, match="round 0: share set mismatch: missing"):
        engine.complete_round(inputs)
    # Nothing advanced: the round can be completed once the share arrives.
    assert engine.round_index == 0 and engine.reports == []


def test_secure_round_with_partial_participation():
    # Pairwise masks are exchanged among the sampled subset only, so they
    # still cancel when not everyone participates.
    clients = [_client(i) for i in range(5)]
    masked = _engine(
        clients,
        TrainingSchedule(rounds=1, local_epochs=2, participation_fraction=0.6),
        secure_aggregation=True,
    )
    plain = _engine(
        [_client(i) for i in range(5)],
        TrainingSchedule(rounds=1, local_epochs=2, participation_fraction=0.6),
    )
    masked.run_round()
    plain.run_round()
    assert np.max(np.abs(masked.params - plain.params)) <= 3 * 2.0**-23


def test_engine_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        _engine([_client(0), _client(0)], TrainingSchedule(rounds=1))


def test_tracked_values_follow_domains():
    clients = [_client(i, tag) for i, tag in enumerate(["medical", "financial", "user"])]
    schedule = TrainingSchedule(rounds=1, local_epochs=2)
    engine = _engine(clients, schedule, tracked_indices=(0, 4))
    report = engine.run_round()
    assert set(report.tracked) == {"global", "medical", "financial", "user"}
    assert all(len(v) == 2 for v in report.tracked.values())
    # Domain traces reflect local training, so they differ from the global trace.
    assert report.tracked["medical"] != report.tracked["global"]
