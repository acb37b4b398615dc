"""The federated round engine: local training, aggregation, global advance.

One round is broadcast -> local train -> release -> aggregate:

* every sampled client starts from the global parameters and runs
  ``local_epochs`` of (full-batch or mini-batch) gradient steps at the
  round's learning rate;
* the client releases its parameter delta (local minus global), passed
  through the privacy mechanism; under secure aggregation it releases
  only the masked share of its coefficient-weighted delta;
* the server combines deltas as a convex combination under the active
  policy and advances the global model by the combined delta.

Combining deltas from a shared starting point is algebraically the same
as averaging the clients' parameters directly, bounds the sensitivity the
privacy clipping has to cover, and keeps wire payloads small.

Determinism contract: all randomness (participant sampling, shuffling,
noise) is derived per (run seed, purpose, client, round); updates are
sorted by client id before accumulation, so results are independent of
worker scheduling or arrival order.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

# ``evaluate`` is not called here; it stays importable from this module for
# tools that hook the engine's layers by name.
from .evaluation import (
    ClientRoundRecord,
    RoundReport,
    count_predictions,
    evaluate,  # noqa: F401
    metrics,
    trace_parameters,
)
from .model import (
    Dataset,
    ModelSpec,
    check_dataset,
    check_params,
    gradient,
    init_params,
    loss,
    mean_loss,
    param_dim,
    row_losses,
    step,
)
from .privacy import MECHANISM_NONE, NoiseReceipt, PrivacyBudget, privatize
from .rng import derive_seed, generator
from .secure_sum import (
    FixedPointCodec,
    MaskedShare,
    PairwiseSeedMatrix,
    SecureSumAbort,
    mask,
    unmask_sum,
)

log = logging.getLogger(__name__)

POLICY_UNIFORM = "uniform"
POLICY_SIZE = "size_weighted"
POLICY_CUSTOM = "custom_weighted"
POLICY_KINDS = (POLICY_UNIFORM, POLICY_SIZE, POLICY_CUSTOM)

GLOBAL_TAG = "global"

_FLAGGED_RECEIPT = NoiseReceipt(
    sigma=0.0, clip_applied=False, pre_clip_norm=0.0, mechanism=MECHANISM_NONE
)


class FederationAbort(Exception):
    """The experiment cannot continue (a round failed, e.g. no usable updates)."""


@dataclass
class ClientState:
    """One client: its identity, local data, and privacy budget."""

    client_id: int
    domain_tag: str
    data: Dataset
    budget: PrivacyBudget


@dataclass
class ClientUpdate:
    """A client's released contribution for one round.

    Under secure aggregation the update carries ``share``, the masked
    words of ``coefficient * delta``, and its ``delta`` is zeros; this is
    the update the server decodes from a ``MASKED_SHARE`` frame.
    """

    client_id: int
    round_index: int
    delta: np.ndarray
    sample_count: int
    loss_before: float
    loss_after: float
    receipt: NoiseReceipt
    diverged: bool = False
    tracked_values: tuple[float, ...] = ()
    share: MaskedShare | None = None

    def __post_init__(self) -> None:
        self.delta = np.asarray(self.delta, dtype=np.float64)
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        if not self.diverged and not np.isfinite(self.delta).all():
            raise ValueError("non-flagged update has non-finite delta")


@dataclass(frozen=True)
class AggregationPolicy:
    """How client updates are weighted into the global step.

    ``privacy_derived`` leaves ``weights`` null; every engine derives them
    from its clients by :func:`derive_privacy_weights` under ``epsilon_cap``.
    """

    kind: str = POLICY_UNIFORM
    weights: dict[int, float] | None = None
    privacy_derived: bool = False
    epsilon_cap: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"kind must be one of {', '.join(POLICY_KINDS)}, not {self.kind!r}")
        for cid, w in (self.weights or {}).items():
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"weights.{cid} must be finite and >= 0")
        if not self.epsilon_cap > 0:
            raise ValueError("epsilon_cap must be > 0")
        if self.privacy_derived and self.kind != POLICY_CUSTOM:
            raise ValueError(f"privacy_derived only valid with kind {POLICY_CUSTOM}")
        if self.privacy_derived and self.weights is not None:
            raise ValueError("weights must be null when privacy_derived derives them")
        if self.weights is not None and self.kind != POLICY_CUSTOM:
            raise ValueError(f"weights must be null unless kind is {POLICY_CUSTOM}")


@dataclass(frozen=True)
class TrainingSchedule:
    """Round count and the local optimization recipe."""

    rounds: int
    local_epochs: int = 5
    batch_size: int | None = None
    learning_rate: float = 0.1
    lr_decay: float = 0.99
    participation_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when set")
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must lie in (0, 1]")
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError("participation_fraction must lie in (0, 1]")


def learning_rate_at(schedule: TrainingSchedule, round_index: int) -> float:
    """Learning rate for a 0-based round: base * decay^round."""
    return schedule.learning_rate * schedule.lr_decay**round_index


def _descent_epochs(
    spec: ModelSpec,
    dataset: Dataset,
    params: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int | None,
    run_seed: int,
    shuffle_id: int,
    round_index: int,
) -> tuple[np.ndarray, float]:
    """Plain gradient descent for ``epochs`` passes from checked ``params`` and ``dataset``.

    Returns the new parameters, non-finite as-is when a step diverges
    (callers decide how to flag it), and the loss at ``params``.  Full
    batch takes that loss from the first step's logits.  Minibatches are
    shuffled by the stream of ``(run_seed, "shuffle", shuffle_id, round_index)``.
    """
    x, y = dataset.features, dataset.labels
    theta = params
    full_batch = batch_size is None or batch_size >= len(y)
    # Outside the errstate below, so this loss warns as loss() does.
    if full_batch:
        grad, start_loss = step(spec, theta, x, y, with_loss=True)
    else:
        start_loss = mean_loss(spec, theta, row_losses(spec, theta, x, y)[0])
    # Overflow in a step is the divergence signal handled by the caller,
    # not a numerical surprise worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if full_batch:
            for epoch in range(epochs):
                # Later steps go through gradient(), the name that step
                # timers hook; it checks theta, which is finite here.
                if epoch:
                    grad = gradient(spec, theta, dataset)
                theta = theta - lr * grad
                if not np.isfinite(theta).all():
                    break
        else:
            rng = generator(derive_seed(run_seed, "shuffle", shuffle_id, round_index))
            for _ in range(epochs):
                order = rng.permutation(len(y))
                xs, ys = x[order], y[order]
                for start in range(0, len(ys), batch_size):
                    rows = slice(start, start + batch_size)
                    theta = theta - lr * step(spec, theta, xs[rows], ys[rows])[0]
                    if not np.isfinite(theta).all():
                        return theta, start_loss
    return theta, start_loss


def local_train(
    client: ClientState,
    global_params: np.ndarray,
    schedule: TrainingSchedule,
    spec: ModelSpec,
    round_index: int,
    run_seed: int,
    tracked_indices: tuple[int, ...] = (),
) -> ClientUpdate:
    """One client's local round: E epochs from the global model, then release.

    The released delta is ``privatize(theta_local - theta_global)``.  A
    non-finite trajectory yields a flagged (diverged) update carrying a
    zero delta, which aggregation excludes.
    """
    global_params = check_params(spec, global_params)
    check_dataset(spec, client.data)
    theta, loss_before = _descent_epochs(
        spec,
        client.data,
        global_params,
        schedule.local_epochs,
        learning_rate_at(schedule, round_index),
        schedule.batch_size,
        run_seed,
        client.client_id,
        round_index,
    )
    if not np.isfinite(theta).all():
        log.warning(
            "client %d diverged in round %d; flagging update", client.client_id, round_index
        )
        return ClientUpdate(
            client_id=client.client_id,
            round_index=round_index,
            delta=np.zeros_like(global_params),
            sample_count=len(client.data),
            loss_before=loss_before,
            loss_after=float("inf"),
            receipt=_FLAGGED_RECEIPT,
            diverged=True,
        )
    loss_after = loss(spec, theta, client.data)
    delta, receipt = privatize(
        theta - global_params,
        client.budget,
        derive_seed(run_seed, "noise", client.client_id, round_index),
    )
    tracked = tuple(float(v) for v in trace_parameters(theta, tracked_indices))
    return ClientUpdate(
        client_id=client.client_id,
        round_index=round_index,
        delta=delta,
        sample_count=len(client.data),
        loss_before=loss_before,
        loss_after=loss_after,
        receipt=receipt,
        tracked_values=tracked,
    )


def policy_coefficients(
    policy: AggregationPolicy, sample_counts: dict[int, int]
) -> dict[int, float]:
    """Normalized aggregation coefficients of the given clients under ``policy``.

    The raw weights are summed in client-id order, so the coefficients do
    not depend on the order of ``sample_counts``.
    """
    raw = {}
    for cid in sorted(sample_counts):
        if policy.kind == POLICY_UNIFORM:
            raw[cid] = 1.0
        elif policy.kind == POLICY_SIZE:
            raw[cid] = float(sample_counts[cid])
        elif policy.weights is None or cid not in policy.weights:
            raise ValueError(f"custom_weighted policy is missing a weight for client {cid}")
        else:
            raw[cid] = float(policy.weights[cid])
    total = sum(raw.values())
    if not 0 < total < math.inf:
        raise ValueError(f"total weight must be finite and > 0, not {total!r}")
    return {cid: w / total for cid, w in raw.items()}


def _combined_delta(
    updates: list[ClientUpdate],
    coefficients: dict[int, float],
    summed: np.ndarray | None = None,
) -> np.ndarray:
    """The global step: the coefficient-weighted sum of non-flagged deltas.

    ``summed`` is that sum when it was formed elsewhere (the unmasked
    total of a secure round); otherwise it is accumulated here over the
    updates in client-id order, starting from zeros.  When any update is
    flagged, the sum is divided by the non-flagged coefficients' total so
    the remaining updates still form a convex combination.
    """
    usable = sorted((u for u in updates if not u.diverged), key=lambda u: u.client_id)
    if not usable:
        raise ValueError("no non-flagged updates to aggregate")
    if summed is None:
        summed = np.zeros_like(usable[0].delta)
        for update in usable:
            summed = summed + coefficients[update.client_id] * update.delta
    if len(usable) < len(updates):
        usable_total = sum(coefficients[u.client_id] for u in usable)
        if not usable_total > 0:
            raise ValueError("zero total weight under the aggregation policy")
        summed = summed / usable_total
    return summed


def derive_privacy_weights(
    clients: list[ClientState], epsilon_cap: float = 8.0
) -> dict[int, float]:
    """Privacy-aware weights: w_i proportional to |D_i| * min(eps_i, cap)/cap.

    Clients with stricter budgets (smaller epsilon) contribute less;
    disabled budgets count as the cap.  Weights are normalized to sum 1;
    a degenerate all-zero result falls back to uniform with a warning.
    """
    if not epsilon_cap > 0:
        raise ValueError("epsilon_cap must be > 0")
    raw = {}
    for client in clients:
        eps = epsilon_cap if not client.budget.enabled else min(client.budget.epsilon, epsilon_cap)
        raw[client.client_id] = len(client.data) * (eps / epsilon_cap)
    total = sum(raw.values())
    if not total > 0:
        log.warning("privacy-derived weights are all zero; falling back to uniform")
        return {cid: 1.0 / len(raw) for cid in raw}
    return {cid: w / total for cid, w in raw.items()}


@dataclass
class RoundInputs:
    """Everything the server side needs to finish a round."""

    round_index: int
    participant_ids: list[int]
    coefficients: dict[int, float]
    updates: list[ClientUpdate] = field(default_factory=list)


class FederationEngine:
    """Drives a federation: holds the global model and per-round state.

    The same engine backs the in-process simulator and the socket server;
    the only difference is where client updates come from.  Methods are
    split so a transport layer can broadcast/collect between
    :meth:`begin_round` and :meth:`complete_round`.
    """

    def __init__(
        self,
        spec: ModelSpec,
        clients: list[ClientState],
        schedule: TrainingSchedule,
        policy: AggregationPolicy,
        run_seed: int,
        *,
        secure_aggregation: bool = False,
        scale_bits: int = 24,
        eval_sets: dict[str, Dataset],
        tracked_indices: tuple[int, ...] = (),
    ):
        if not clients:
            raise ValueError("a federation needs at least one client")
        ids = [c.client_id for c in clients]
        if len(set(ids)) != len(ids):
            raise ValueError("client ids must be unique")
        if any(not 0 <= cid < 2**64 for cid in ids):  # seeds are derived from 64-bit ids
            raise ValueError("client ids must lie in [0, 2^64)")
        dim = param_dim(spec)
        for client in clients:
            try:
                check_dataset(spec, client.data)
            except ValueError as exc:
                raise ValueError(f"client {client.client_id}: {exc}") from None
            if client.domain_tag == GLOBAL_TAG:  # the tag names the global model's trace
                raise ValueError(f"client {client.client_id} has the reserved domain tag {GLOBAL_TAG!r}")
        if not eval_sets:
            raise ValueError("a federation needs at least one eval set")
        for dataset in eval_sets.values():
            check_dataset(spec, dataset)
        if any(not 0 <= i < dim for i in tracked_indices):
            raise ValueError("tracked index out of range for the model")
        self.clients = {c.client_id: c for c in sorted(clients, key=lambda c: c.client_id)}
        if policy.privacy_derived:
            weights = derive_privacy_weights(list(self.clients.values()), policy.epsilon_cap)
            policy = replace(policy, weights=weights, privacy_derived=False)
        if policy.kind == POLICY_CUSTOM and policy.weights is None:
            raise ValueError("custom_weighted policy needs weights")
        self.spec = spec
        self.schedule = schedule
        self.policy = policy
        self.run_seed = run_seed
        self.secure_aggregation = secure_aggregation
        self.codec = FixedPointCodec(scale_bits)
        self.eval_sets = dict(eval_sets)
        self.pooled_test = Dataset.join(self.eval_sets.values(), spec.class_count)
        self.tracked_indices = tuple(int(i) for i in tracked_indices)
        self.params = init_params(spec)
        self.round_index = 0
        self.reports: list[RoundReport] = []

    @functools.cached_property
    def seed_matrix(self) -> PairwiseSeedMatrix:
        """Every pair seed, derived on first use: only a party that masks derives them."""
        return PairwiseSeedMatrix.from_root_seed(derive_seed(self.run_seed, "mask"), self.clients)

    # -- round building blocks -------------------------------------------

    def participants(self, round_index: int) -> list[int]:
        """Seeded choice of ceil(fraction * N) clients, returned sorted."""
        ids = sorted(self.clients)
        count = math.ceil(self.schedule.participation_fraction * len(ids))
        if count == len(ids):
            return ids
        rng = generator(derive_seed(self.run_seed, "participation", round_index))
        chosen = rng.permutation(np.asarray(ids))[:count]
        return sorted(int(c) for c in chosen)

    def begin_round(self, round_index: int) -> RoundInputs:
        """The round's participants and their coefficients, fixed before training."""
        pids = self.participants(round_index)
        sample_counts = {cid: len(self.clients[cid].data) for cid in pids}
        try:
            coefficients = policy_coefficients(self.policy, sample_counts)
        except ValueError as exc:
            raise FederationAbort(f"round {round_index}: {exc}") from exc
        return RoundInputs(round_index, pids, coefficients)

    def run_local(self, client_id: int, inputs: RoundInputs) -> ClientUpdate:
        """Train one participant of the round and release its update.

        Under secure aggregation the release masks ``coefficient * delta``
        (zeros for a flagged update, whose delta is zeros) against the
        round's participants, stores the share in the update and zeroes
        its delta.  It refuses a delta that reaches half the codec's range:
        coefficients are >= 0 and sum to at most 1, so the masked sum then
        stays below 2^62 units, plus one rounding unit per client, and
        cannot wrap.
        """
        t = inputs.round_index
        update = local_train(
            self.clients[client_id],
            self.params,
            self.schedule,
            self.spec,
            t,
            self.run_seed,
            self.tracked_indices,
        )
        if not self.secure_aggregation:
            return update
        limit = self.codec.max_magnitude / 2
        if (np.abs(update.delta) >= limit).any():
            raise FederationAbort(
                f"client {client_id}, round {t}: update does not fit the fixed-point codec "
                f"(|delta| must be < {limit:g})"
            )
        encoded = self.codec.encode(inputs.coefficients[client_id] * update.delta)
        update.share = mask(encoded, client_id, self.seed_matrix, inputs.participant_ids, t)
        update.delta = np.zeros_like(update.delta)
        return update

    def complete_round(self, inputs: RoundInputs) -> RoundReport:
        """Aggregate, advance the global model, evaluate, and record."""
        if inputs.round_index != self.round_index:
            raise FederationAbort(
                f"round mismatch: inputs for {inputs.round_index}, engine at {self.round_index}"
            )
        try:
            summed = None
            if self.secure_aggregation:
                shares = [u.share for u in inputs.updates]
                summed = unmask_sum(shares, self.codec, inputs.participant_ids)
            step = _combined_delta(inputs.updates, inputs.coefficients, summed)
        except (SecureSumAbort, ValueError) as exc:
            raise FederationAbort(f"round {inputs.round_index}: {exc}") from exc
        self.params = self.params + step
        report = self._build_report(inputs)
        self.reports.append(report)
        self.round_index += 1
        return report

    def run_round(self) -> RoundReport:
        """One full in-process round."""
        inputs = self.begin_round(self.round_index)
        inputs.updates = [self.run_local(cid, inputs) for cid in inputs.participant_ids]
        return self.complete_round(inputs)

    def run(self) -> list[RoundReport]:
        for _ in range(self.schedule.rounds):
            self.run_round()
        return self.reports

    # -- reporting ---------------------------------------------------------

    def _build_report(self, inputs: RoundInputs) -> RoundReport:
        params = check_params(self.spec, self.params)
        scored = {
            tag: row_losses(self.spec, params, dataset.features, dataset.labels)
            for tag, dataset in self.eval_sets.items()
        }
        domain_losses = {tag: mean_loss(self.spec, params, scored[tag][0]) for tag in sorted(scored)}
        # pooled_test is the eval sets joined in this order, so its rows are these.
        global_loss = mean_loss(self.spec, params, np.concatenate([ce for ce, _ in scored.values()]))
        predicted = np.concatenate([np.argmax(logits, axis=1) for _, logits in scored.values()])
        counts = count_predictions(self.spec.class_count, self.pooled_test.labels, predicted)
        global_metrics = metrics(counts)

        by_update = {u.client_id: u for u in inputs.updates}
        tracked: dict[str, tuple[float, ...]] = {}
        if self.tracked_indices:
            global_values = tuple(
                float(v) for v in trace_parameters(self.params, self.tracked_indices)
            )
            tracked[GLOBAL_TAG] = global_values
            for tag in sorted({c.domain_tag for c in self.clients.values()}):
                rows = [
                    by_update[cid].tracked_values
                    for cid in inputs.participant_ids
                    if self.clients[cid].domain_tag == tag and not by_update[cid].diverged
                ]
                if rows:
                    tracked[tag] = tuple(float(v) for v in np.mean(rows, axis=0))
                else:
                    # Domain idle this round: its latest local view is the global model.
                    tracked[tag] = global_values

        records = []
        for cid, client in self.clients.items():
            budget = client.budget
            update = by_update.get(cid)
            joined = update is not None
            records.append(
                ClientRoundRecord(
                    client_id=cid,
                    domain_tag=client.domain_tag,
                    participated=joined,
                    diverged=joined and update.diverged,
                    # _collect refuses an update whose count differs from the shard.
                    sample_count=len(client.data),
                    loss_before=update.loss_before if joined else float("nan"),
                    loss_after=update.loss_after if joined else float("nan"),
                    receipt=update.receipt if joined else None,
                    epsilon=budget.epsilon if budget.enabled else None,
                    delta=budget.delta if budget.enabled else None,
                )
            )
        return RoundReport(
            round_index=inputs.round_index,
            domain_losses=domain_losses,
            global_loss=global_loss,
            global_metrics=global_metrics,
            tracked=tracked,
            clients=tuple(records),
        )
