"""Experiment configuration: parsing, validation, canonical form, hashing.

A config is a single JSON document (UTF-8, nested objects and arrays).
:func:`parse_config` validates it and fills every default, producing both
typed objects and a *canonical dict*: fully defaulted, deterministically
ordered.  The canonical dict is what gets re-emitted, and its
experiment-defining subset (everything except ``output_dir`` and
``transport``) is SHA-256 hashed; server and clients compare this hash
during the HELLO handshake, so formatting differences never matter but
semantic differences always do.

Every validation error names the offending key path.

Canonical example (all keys shown; ``domains[*].csv`` replaces ``recipe``
for file-backed domains)::

    {
      "domains": [
        {"clients": 1, "eval_samples": 120, "recipe": "medical",
         "tag": "medical", "train_samples": 240}
      ],
      "fixed_point_scale_bits": 24,
      "model": {"class_count": 3, "family": "softmax_linear",
                "feature_dim": 2, "l2_coefficient": 0.0},
      "output_dir": "runs/example",
      "partition": {"dirichlet_alpha": 1.0, "min_samples_per_client": 1,
                    "scheme": "iid", "seed": 0},
      "policy": {"epsilon_cap": 8.0, "kind": "uniform",
                 "privacy_derived": false, "weights": null},
      "privacy": {"client_overrides": {}, "clip_norm": 1.0, "delta": 1e-05,
                  "enabled": false, "epsilon": 1.0},
      "schedule": {"batch_size": null, "learning_rate": 0.1, "lr_decay": 0.99,
                   "local_epochs": 5, "participation_fraction": 1.0,
                   "rounds": 100},
      "secure_aggregation": false,
      "seed": 42,
      "tracked_indices": [0],
      "transport": {"host": "127.0.0.1", "port": 7700, "timeout_seconds": 30.0}
    }
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

from .data import SCHEME_DIRICHLET, SCHEME_IID, DomainRecipe, builtin_recipe
from .federation import (
    POLICY_CUSTOM,
    POLICY_KINDS,
    POLICY_UNIFORM,
    AggregationPolicy,
    TrainingSchedule,
)
from .model import FAMILY_SOFTMAX_LINEAR, ModelSpec, param_dim
from .privacy import PrivacyBudget

MAX_SEED = 2**64 - 1
_REQUIRED = object()


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _type_name(types) -> str:
    if isinstance(types, tuple):
        return " or ".join(t.__name__ for t in types)
    return types.__name__


class _Node:
    """A dict with a key path, for error messages that name their key."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        self.data = data
        self.path = path

    def _full(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, types, default=_REQUIRED):
        if key not in self.data or self.data[key] is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self._full(key)}: required key is missing")
            return default
        value = self.data[key]
        if types is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if types is int and isinstance(value, bool):
            raise ConfigError(f"{self._full(key)}: expected int, got bool")
        if not isinstance(value, types):
            raise ConfigError(
                f"{self._full(key)}: expected {_type_name(types)}, got {type(value).__name__}"
            )
        return value

    def child(self, key: str, default=_REQUIRED) -> "_Node":
        return _Node(self.get(key, dict, default), self._full(key))

    def reject_unknown(self, allowed: set[str]) -> None:
        unknown = set(self.data) - allowed
        if unknown:
            raise ConfigError(f"{self._full(sorted(unknown)[0])}: unknown key")


@dataclass(frozen=True)
class CsvDomainSource:
    path: str
    feature_columns: tuple[str, ...]
    label_column: str
    eval_fraction: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))


@dataclass(frozen=True)
class DomainConfig:
    tag: str
    recipe: DomainRecipe | None
    csv: CsvDomainSource | None
    train_samples: int
    eval_samples: int
    clients: int


@dataclass(frozen=True)
class PartitionConfig:
    scheme: str
    dirichlet_alpha: float
    min_samples_per_client: int
    seed: int


@dataclass(frozen=True)
class TransportConfig:
    host: str
    port: int
    timeout_seconds: float


@dataclass
class ExperimentConfig:
    """A fully validated experiment description."""

    seed: int
    model: ModelSpec
    domains: list[DomainConfig]
    partition: PartitionConfig
    schedule: TrainingSchedule
    policy: AggregationPolicy
    privacy_derived_weights: bool
    epsilon_cap: float
    default_budget: PrivacyBudget
    budget_overrides: dict[int, PrivacyBudget]
    secure_aggregation: bool
    scale_bits: int
    tracked_indices: tuple[int, ...]
    transport: TransportConfig
    output_dir: str
    canonical: dict

    @property
    def client_count(self) -> int:
        return sum(d.clients for d in self.domains)

    def budget_for(self, client_id: int) -> PrivacyBudget:
        return self.budget_overrides.get(client_id, self.default_budget)


class _Field(NamedTuple):
    """One key of a config section: accepted types, default, and value check."""

    name: str
    types: type | tuple[type, ...]
    default: Any = _REQUIRED
    valid: Callable[[Any], bool] | None = None
    problem: str = ""  # the error when ``valid`` fails; ``{!r}`` shows the value


_SEED_RANGE = (lambda v: 0 <= v <= MAX_SEED, "must lie in [0, 2^64)")
_POSITIVE = (lambda v: v > 0, "must be > 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")

# One table per section drives unknown-key rejection, typed reads with
# defaults, the typed object built from the values, and the canonical form.
_ROOT = (
    _Field("seed", int, _REQUIRED, *_SEED_RANGE),
    _Field("model", dict),
    _Field("domains", list),
    _Field("partition", dict, {}),
    _Field("schedule", dict),
    _Field("policy", dict, {}),
    _Field("privacy", dict, {}),
    _Field("secure_aggregation", bool, False),
    _Field("fixed_point_scale_bits", int, 24, lambda v: 1 <= v <= 52, "must lie in [1, 52]"),
    # The wire counts a client's tracked values in a u16.
    _Field("tracked_indices", list, [], lambda v: len(v) <= 65535, "must hold <= 65535 entries"),
    _Field("transport", dict, {}),
    _Field("output_dir", str, "fedmesh-output"),
)
_MODEL = (
    _Field("family", str, FAMILY_SOFTMAX_LINEAR),
    _Field("feature_dim", int),
    _Field("class_count", int),
    _Field("l2_coefficient", float, 0.0),
)
_DOMAIN = (
    _Field("tag", str, None),
    _Field("recipe", (str, dict), None),
    _Field("csv", dict, None),
    _Field("train_samples", int, None, *_AT_LEAST_ONE),
    _Field("eval_samples", int, None, *_AT_LEAST_ONE),
    _Field("clients", int, 1, *_AT_LEAST_ONE),
)
_RECIPE = (
    _Field("class_means", list),
    _Field("class_covariance_scale", float),
    _Field("mean_shift", list),
    _Field("label_prior", list),
)
_CSV = (
    _Field("path", str),
    _Field(
        "feature_columns",
        list,
        _REQUIRED,
        lambda v: bool(v) and all(isinstance(c, str) for c in v),
        "expected a list of strings",
    ),
    _Field("label_column", str),
    _Field("eval_fraction", float, 0.25, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
)
_PARTITION = (
    _Field("scheme", str, SCHEME_IID, lambda v: v in (SCHEME_IID, SCHEME_DIRICHLET), "unknown scheme {!r}"),
    _Field("dirichlet_alpha", float, 1.0, *_POSITIVE),
    _Field("min_samples_per_client", int, 1, *_AT_LEAST_ONE),
    _Field("seed", int, 0, *_SEED_RANGE),
)
_SCHEDULE = (
    _Field("rounds", int),
    _Field("local_epochs", int, 5),
    _Field("batch_size", int, None),
    _Field("learning_rate", float, 0.1),
    _Field("lr_decay", float, 0.99),
    _Field("participation_fraction", float, 1.0),
)
_POLICY = (
    _Field("kind", str, POLICY_UNIFORM, lambda v: v in POLICY_KINDS, "unknown kind {!r}"),
    _Field("weights", dict, None),
    _Field("privacy_derived", bool, False),
    _Field("epsilon_cap", float, 8.0, *_POSITIVE),
)
_BUDGET = (
    _Field("enabled", bool, False),
    _Field("epsilon", float, 1.0),
    _Field("delta", float, 1e-5),
    _Field("clip_norm", float, 1.0),
)
_PRIVACY = _BUDGET + (_Field("client_overrides", dict, {}),)
_TRANSPORT = (
    _Field("host", str, "127.0.0.1"),
    _Field("port", int, 7700, lambda v: 0 <= v < 65536, "must lie in [0, 65536)"),
    # The client's wait, timeout x (clients + 1), must stay within what select/settimeout accept.
    _Field("timeout_seconds", float, 30.0, lambda v: 0 < v <= 86400, "must lie in (0, 86400]"),
)


def _read(node: _Node, fields: tuple[_Field, ...], defaults: dict | None = None) -> dict:
    """A section's values: known keys only, typed, defaulted and checked."""
    node.reject_unknown({f.name for f in fields})
    values = {}
    for f in fields:
        default = f.default if defaults is None else defaults.get(f.name, f.default)
        value = node.get(f.name, f.types, default)
        if f.valid is not None and value is not None and not f.valid(value):
            raise ConfigError(f"{node._full(f.name)}: {f.problem.format(value)}")
        values[f.name] = value
    return values


def _section(top: dict, name: str, fields: tuple[_Field, ...]) -> dict:
    """Replace the raw top-level section ``name`` by its read values."""
    top[name] = _read(_Node(top[name], name), fields)
    return top[name]


def _build(make, values: dict, path: str):
    """The typed object of a section; its own validation errors name the section."""
    try:
        return make(**values)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _client_id(path: str, key: str, client_count: int) -> int:
    try:
        cid = int(key)
    except ValueError:
        raise ConfigError(f"{path}: keys must be client ids") from None
    if not 0 <= cid < client_count:
        raise ConfigError(f"{path}: no such client (have 0..{client_count - 1})")
    return cid


def _plain(value):
    """A JSON-ready copy: arrays and tuples become lists, keys become strings."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _check_recipe_shape(recipe: DomainRecipe, model: ModelSpec, path: str) -> None:
    if recipe.feature_dim != model.feature_dim:
        raise ConfigError(
            f"{path}: recipe feature_dim {recipe.feature_dim} != model.feature_dim {model.feature_dim}"
        )
    if recipe.class_count != model.class_count:
        raise ConfigError(
            f"{path}: recipe class count {recipe.class_count} != model.class_count {model.class_count}"
        )


def _parse_domain(node: _Node, model: ModelSpec) -> tuple[DomainConfig, dict]:
    """One domain and its canonical entry."""
    values = _read(node, _DOMAIN)
    recipe_raw, csv_raw = values.pop("recipe"), values.pop("csv")
    if (recipe_raw is None) == (csv_raw is None):
        raise ConfigError(f"{node.path}: exactly one of 'recipe' or 'csv' is required")
    if isinstance(recipe_raw, str) and values["tag"] is None:
        values["tag"] = recipe_raw  # a built-in recipe names its domain
    if csv_raw is not None:
        # A file-backed domain takes its sizes from the file.
        del values["train_samples"], values["eval_samples"]
    for key in values:
        if values[key] is None:
            raise ConfigError(f"{node._full(key)}: required key is missing")

    recipe = csv = None
    if csv_raw is not None:
        csv_node = node.child("csv")
        values["csv"] = _read(csv_node, _CSV)
        csv = CsvDomainSource(**values["csv"])
        if len(csv.feature_columns) != model.feature_dim:
            raise ConfigError(
                f"{csv_node._full('feature_columns')}: {len(csv.feature_columns)} columns "
                f"!= model.feature_dim {model.feature_dim}"
            )
    elif isinstance(recipe_raw, str):
        try:
            recipe = builtin_recipe(recipe_raw)
        except ValueError as exc:
            raise ConfigError(f"{node._full('recipe')}: {exc}") from None
        values["recipe"] = recipe_raw
    else:
        recipe_node = node.child("recipe")
        recipe_values = _read(recipe_node, _RECIPE)
        recipe = _build(partial(DomainRecipe, values["tag"]), recipe_values, recipe_node.path)
        # The recipe holds float arrays; emitting those canonicalizes integer literals.
        values["recipe"] = {f.name: getattr(recipe, f.name) for f in _RECIPE}
    if recipe is not None:
        _check_recipe_shape(recipe, model, node._full("recipe"))

    domain = DomainConfig(
        tag=values["tag"],
        recipe=recipe,
        csv=csv,
        train_samples=values.get("train_samples", 0),
        eval_samples=values.get("eval_samples", 0),
        clients=values["clients"],
    )
    return domain, values


def _parse_weights(raw: dict, client_count: int) -> dict[int, float]:
    weights = {}
    for key, value in raw.items():
        path = f"policy.weights.{key}"
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{path}: expected a number")
        if not math.isfinite(value) or value < 0:
            raise ConfigError(f"{path}: must be finite and >= 0")
        weights[_client_id(path, key, client_count)] = float(value)
    return weights


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and fill every default.

    Each section's read values replace its raw dict in ``top``; a JSON-ready
    copy of ``top`` is the canonical form.
    """
    top = _read(_Node(raw, ""), _ROOT)
    model = _build(ModelSpec, _section(top, "model", _MODEL), "model")

    if not top["domains"]:
        raise ConfigError("domains: at least one domain is required")
    parsed = [
        _parse_domain(_Node(entry, f"domains[{i}]"), model)
        for i, entry in enumerate(top["domains"])
    ]
    domains = [domain for domain, _ in parsed]
    top["domains"] = [entry for _, entry in parsed]
    tags = [d.tag for d in domains]
    if len(set(tags)) != len(tags):
        raise ConfigError("domains: tags must be unique")
    client_count = sum(d.clients for d in domains)

    partition = _build(PartitionConfig, _section(top, "partition", _PARTITION), "partition")
    schedule = _build(TrainingSchedule, _section(top, "schedule", _SCHEDULE), "schedule")

    policy = _section(top, "policy", _POLICY)
    if policy["weights"] is not None:
        policy["weights"] = _parse_weights(policy["weights"], client_count)
    weights = policy["weights"]
    if policy["kind"] == POLICY_CUSTOM and not policy["privacy_derived"]:
        if weights is None:
            raise ConfigError("policy.weights: required for custom_weighted (or set privacy_derived)")
        missing = [cid for cid in range(client_count) if cid not in weights]
        if missing:
            raise ConfigError(f"policy.weights: missing weight for client {missing[0]}")
        if not sum(weights.values()) > 0:
            raise ConfigError("policy.weights: total weight must be positive")
    if policy["privacy_derived"] and policy["kind"] != POLICY_CUSTOM:
        raise ConfigError("policy.privacy_derived: only valid with kind custom_weighted")

    privacy = _section(top, "privacy", _PRIVACY)
    overrides = privacy.pop("client_overrides")
    default_budget = _build(PrivacyBudget, privacy, "privacy")
    budget_overrides, privacy["client_overrides"] = {}, {}
    for key, value in overrides.items():
        path = f"privacy.client_overrides.{key}"
        cid = _client_id(path, key, client_count)
        budget = _read(_Node(value, path), _BUDGET, defaults=vars(default_budget))
        budget_overrides[cid] = _build(PrivacyBudget, budget, path)
        privacy["client_overrides"][cid] = budget

    dim = param_dim(model)
    for i, value in enumerate(top["tracked_indices"]):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"tracked_indices[{i}]: expected int")
        if not 0 <= value < dim:
            raise ConfigError(f"tracked_indices[{i}]: out of range for parameter dim {dim}")

    transport = _build(TransportConfig, _section(top, "transport", _TRANSPORT), "transport")

    return ExperimentConfig(
        seed=top["seed"],
        model=model,
        domains=domains,
        partition=partition,
        schedule=schedule,
        policy=AggregationPolicy(kind=policy["kind"], weights=weights),
        privacy_derived_weights=policy["privacy_derived"],
        epsilon_cap=policy["epsilon_cap"],
        default_budget=default_budget,
        budget_overrides=budget_overrides,
        secure_aggregation=top["secure_aggregation"],
        scale_bits=top["fixed_point_scale_bits"],
        tracked_indices=tuple(top["tracked_indices"]),
        transport=transport,
        output_dir=top["output_dir"],
        canonical=_plain(top),
    )


def canonical_text(config: ExperimentConfig) -> str:
    """The canonical re-emission of a config (stable, parseable JSON)."""
    return json.dumps(config.canonical, sort_keys=True, indent=2) + "\n"


def config_hash(config: ExperimentConfig) -> bytes:
    """SHA-256 over the experiment-defining keys (not output_dir/transport)."""
    semantic = {
        k: v for k, v in config.canonical.items() if k not in ("output_dir", "transport")
    }
    return hashlib.sha256(json.dumps(semantic, sort_keys=True).encode("utf-8")).digest()


def _parse_override_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``key.path=value`` overrides to a raw config dict.

    Values are parsed as JSON when possible (so ``false`` and ``0.5`` do
    what they look like), else kept as strings.  Integer path segments
    index into arrays.
    """
    import copy

    result = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected KEY=VALUE")
        key, _, text = item.partition("=")
        segments = key.split(".")
        target = result
        for pos, segment in enumerate(segments[:-1]):
            if isinstance(target, list):
                try:
                    target = target[int(segment)]
                except (ValueError, IndexError):
                    raise ConfigError(f"override {key!r}: bad array index {segment!r}") from None
            elif isinstance(target, dict):
                target = target.setdefault(segment, {})
            else:
                raise ConfigError(f"override {key!r}: {'.'.join(segments[:pos + 1])} is a scalar")
        last = segments[-1]
        value = _parse_override_value(text)
        if isinstance(target, list):
            try:
                target[int(last)] = value
            except (ValueError, IndexError):
                raise ConfigError(f"override {key!r}: bad array index {last!r}") from None
        elif isinstance(target, dict):
            target[last] = value
        else:
            raise ConfigError(f"override {key!r}: path ends inside a scalar")
    return result


def load_config(
    path: str,
    overrides: list[str] | None = None,
    seed: int | None = None,
    output_dir: str | None = None,
    transport: dict | None = None,
) -> ExperimentConfig:
    """Read, override, and validate a config file; ``transport`` sets keys of that section."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if overrides:
        raw = apply_overrides(raw, overrides)
    if isinstance(raw, dict):  # parse_config refuses anything else in one line
        if seed is not None:
            raw["seed"] = seed
        if output_dir is not None:
            raw["output_dir"] = output_dir
        if transport and isinstance(raw.setdefault("transport", {}), dict):
            raw["transport"].update(transport)
    return parse_config(raw)
