"""Turn a validated config into a runnable federation, and run it.

The data pipeline is fully deterministic from the config: every domain's
train and eval sets, the per-domain partition into client shards, and the
client id assignment (ids count up in domain order) derive from the
config seed alone.  Server and client processes therefore reconstruct
identical federations independently; the HELLO hash check guarantees they
started from the same config.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .config import ConfigError, ExperimentConfig
from .data import load_csv, partition, synthesize
from .federation import AggregationPolicy, ClientState, FederationEngine
from .model import Dataset
from .privacy import PrivacyBudget
from .rng import derive_seed, generator


def _split_csv_domain(dataset: Dataset, eval_fraction: float, seed: int):
    n = len(dataset)
    eval_count = max(1, int(round(eval_fraction * n)))
    if eval_count >= n:
        raise ConfigError("csv domain too small to hold out an eval split")
    order = generator(seed).permutation(n)
    return dataset.subset(np.sort(order[eval_count:])), dataset.subset(np.sort(order[:eval_count]))


def _clients_and_eval_sets(config: ExperimentConfig) -> tuple[list[ClientState], dict[str, Dataset]]:
    """Synthesize/load every domain, partition shards and assign client ids, in id order."""
    clients: list[ClientState] = []
    eval_sets: dict[str, Dataset] = {}
    next_id = 0
    for index, domain in enumerate(config.domains):
        if domain.csv is not None:
            try:
                full, _ = load_csv(domain.csv)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"domains[{index}].csv: {exc}") from None
            if full.class_count != config.model.class_count:
                raise ConfigError(
                    f"domains[{index}].csv: file has {full.class_count} classes, "
                    f"model expects {config.model.class_count}"
                )
            train, held_out = _split_csv_domain(
                full, domain.csv.eval_fraction, derive_seed(config.seed, "csvsplit", index)
            )
        else:
            try:
                train = synthesize(
                    domain.recipe,
                    domain.train_samples,
                    derive_seed(config.seed, "domain", index, "train"),
                )
                held_out = synthesize(
                    domain.recipe,
                    domain.eval_samples,
                    derive_seed(config.seed, "domain", index, "eval"),
                )
            except ValueError as exc:  # e.g. a scale so large that the draws overflow
                raise ConfigError(f"domains[{index}].recipe: {exc}") from None
        eval_sets[domain.tag] = held_out
        plan = replace(config.partition, seed=derive_seed(config.partition.seed, "domain", index))
        try:
            shards = partition(train, plan, domain.clients)
        except ValueError as exc:
            raise ConfigError(f"domains[{index}]: {exc}") from None
        for shard in shards:
            clients.append(
                ClientState(
                    client_id=next_id,
                    domain_tag=domain.tag,
                    data=shard,
                    budget=config.budget_for(next_id),
                )
            )
            next_id += 1
    return clients, eval_sets


def build_engine(config: ExperimentConfig) -> FederationEngine:
    """The federation the config describes."""
    clients, eval_sets = _clients_and_eval_sets(config)
    return FederationEngine(
        spec=config.model,
        clients=clients,
        schedule=config.schedule,
        policy=config.policy,
        run_seed=config.seed,
        secure_aggregation=config.secure_aggregation,
        scale_bits=config.scale_bits,
        eval_sets=eval_sets,
        tracked_indices=config.tracked_indices,
    )


def build_baseline(config: ExperimentConfig) -> FederationEngine:
    """Pooled training: a one-client federation on every shard, joined in client id order.

    One client takes part in every round (``ceil(fraction * 1) == 1``), with
    no noise and no masking, so a round is ``local_epochs`` of plain descent
    on the pooled data.  Only the model, schedule and seed come from the
    config; its privacy, policy and secure-aggregation settings are the
    federation's alone.  It scores on the federation's eval sets.
    """
    clients, eval_sets = _clients_and_eval_sets(config)
    pooled = Dataset.join((c.data for c in clients), config.model.class_count)
    return FederationEngine(
        spec=config.model,
        clients=[ClientState(0, "pooled", pooled, PrivacyBudget(enabled=False))],
        schedule=config.schedule,
        policy=AggregationPolicy(),
        run_seed=config.seed,
        eval_sets=eval_sets,
    )
