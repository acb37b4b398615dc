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

import dataclasses
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass
from typing import Any, NamedTuple

import numpy as np

from .data import CsvSource, DomainRecipe, PartitionPlan, builtin_recipe
from .federation import (
    GLOBAL_TAG,
    POLICY_CUSTOM,
    AggregationPolicy,
    TrainingSchedule,
    policy_coefficients,
)
from .model import ModelSpec, param_dim
from .privacy import PrivacyBudget
from .rng import MASK64

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _type_name(types) -> str:
    if isinstance(types, tuple):
        return " or ".join(t.__name__ for t in types)
    return types.__name__


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


class _Node:
    """A dict with a key path, for error messages that name their key."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected an object")
        self.data = data
        self.path = path

    def _full(self, key: str) -> str:
        return _join(self.path, key)

    def get(self, key: str, types, default=_REQUIRED):
        """The typed value of ``key``; a ``float`` key also refuses NaN and +-inf."""
        if key not in self.data or self.data[key] is None:
            if default is _REQUIRED:
                raise ConfigError(f"{self._full(key)}: required key is missing")
            return default
        value = self.data[key]
        if types is float and isinstance(value, int) and not isinstance(value, bool):
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
        if types is int and isinstance(value, bool):
            raise ConfigError(f"{self._full(key)}: expected int, got bool")
        if not isinstance(value, types):
            raise ConfigError(
                f"{self._full(key)}: expected {_type_name(types)}, got {type(value).__name__}"
            )
        if types is float and not math.isfinite(value):
            raise ConfigError(f"{self._full(key)}: must be finite")
        return value

    def child(self, key: str, default=_REQUIRED) -> "_Node":
        return _Node(self.get(key, dict, default), self._full(key))

    def reject_unknown(self, allowed: set[str]) -> None:
        unknown = set(self.data) - allowed
        if unknown:
            raise ConfigError(f"{self._full(sorted(unknown)[0])}: unknown key")


@dataclass(frozen=True)
class DomainConfig:
    tag: str  # not GLOBAL_TAG, which names the global model's trace
    recipe: DomainRecipe | None
    csv: CsvSource | None
    train_samples: int | None  # None for a csv domain: its file sets its sizes
    eval_samples: int | None
    clients: int

    def __post_init__(self) -> None:
        if self.tag == GLOBAL_TAG:
            raise ValueError(f"tag {GLOBAL_TAG!r} is reserved for the global model")
        for name in ("train_samples", "eval_samples"):
            if self.csv is not None and getattr(self, name) is not None:
                raise ValueError(f"{name} must be left out of a csv domain, whose file sets its sizes")
        for name in ("train_samples", "eval_samples", "clients"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class TransportConfig:
    host: str = "127.0.0.1"
    port: int = 7700
    timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not 0 <= self.port < 65536:
            raise ValueError("port must lie in [0, 65536)")
        # The client's wait, timeout x (clients + 1), must stay within what select/settimeout accept.
        if not 0 < self.timeout_seconds <= 86400:
            raise ValueError("timeout_seconds must lie in (0, 86400]")


@dataclass
class ExperimentConfig:
    """A fully validated experiment description."""

    seed: int
    model: ModelSpec
    domains: list[DomainConfig]
    partition: PartitionPlan
    schedule: TrainingSchedule
    policy: AggregationPolicy
    default_budget: PrivacyBudget
    budget_overrides: dict[int, PrivacyBudget]
    secure_aggregation: bool
    scale_bits: int
    tracked_indices: tuple[int, ...]
    transport: TransportConfig
    output_dir: str
    canonical: dict

    def __post_init__(self) -> None:
        # Messages name the config keys, so a ConfigError can point at them.
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must lie in [0, 2^64)")
        if not 1 <= self.scale_bits <= 52:
            raise ValueError("fixed_point_scale_bits must lie in [1, 52]")
        # The wire counts a client's tracked values in a u16.
        if len(self.tracked_indices) > 65535:
            raise ValueError("tracked_indices must hold <= 65535 entries")

    @property
    def client_count(self) -> int:
        return sum(d.clients for d in self.domains)

    def budget_for(self, client_id: int) -> PrivacyBudget:
        return self.budget_overrides.get(client_id, self.default_budget)


class _Field(NamedTuple):
    """One key of a config section: its accepted types and its default."""

    name: str
    types: type | tuple[type, ...]
    default: Any = _REQUIRED


def _fields(cls, **defaults) -> tuple[_Field, ...]:
    """The table of a section whose keys are the fields of the dataclass ``cls``.

    ``X | None`` reads as a nullable ``X``, and a tuple or array as a JSON
    list; ``defaults`` replaces a field's own default.
    """
    hints = typing.get_type_hints(cls)
    table = []
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if isinstance(hint, types.UnionType):
            (hint,) = (t for t in hint.__args__ if t is not type(None))
        hint = typing.get_origin(hint) or hint  # dict[int, float] reads as a dict
        default = _REQUIRED if f.default is dataclasses.MISSING else f.default
        table.append(
            _Field(f.name, list if hint in (tuple, np.ndarray) else hint, defaults.get(f.name, default))
        )
    return tuple(table)


# One table per section drives unknown-key rejection, typed reads with
# defaults, and the canonical form.  Value checks live in the typed object
# each section builds; :func:`_build` names the key they refuse.  The root
# and a domain are written out, because their JSON differs from their
# typed objects.
_ROOT = (
    _Field("seed", int),
    _Field("model", dict),
    _Field("domains", list),
    _Field("partition", dict, {}),
    _Field("schedule", dict),
    _Field("policy", dict, {}),
    _Field("privacy", dict, {}),
    _Field("secure_aggregation", bool, False),
    _Field("fixed_point_scale_bits", int, 24),
    _Field("tracked_indices", list, []),
    _Field("transport", dict, {}),
    _Field("output_dir", str, "fedmesh-output"),
)
_DOMAIN = (
    _Field("tag", str, None),
    _Field("recipe", (str, dict), None),
    _Field("csv", dict, None),
    _Field("train_samples", int, None),
    _Field("eval_samples", int, None),
    _Field("clients", int, 1),
)
_MODEL = _fields(ModelSpec)
_RECIPE = _fields(DomainRecipe)
_CSV = _fields(CsvSource)
_PARTITION = _fields(PartitionPlan)
_SCHEDULE = _fields(TrainingSchedule)
_POLICY = _fields(AggregationPolicy)
_BUDGET = _fields(PrivacyBudget, enabled=False)  # a config's privacy is off unless it says so
_PRIVACY = _BUDGET + (_Field("client_overrides", dict, {}),)
_TRANSPORT = _fields(TransportConfig)


def _read(node: _Node, fields: tuple[_Field, ...], defaults: dict | None = None) -> dict:
    """A section's values: known keys only, typed and defaulted."""
    node.reject_unknown({f.name for f in fields})
    values = {}
    for f in fields:
        default = f.default if defaults is None else defaults.get(f.name, f.default)
        values[f.name] = node.get(f.name, f.types, default)
    return values


def _section(top: dict, name: str, fields: tuple[_Field, ...]) -> dict:
    """Replace the raw top-level section ``name`` by its read values."""
    top[name] = _read(_Node(top[name], name), fields)
    return top[name]


def _build(make, values: dict, path: str, fields: tuple[_Field, ...]):
    """The typed object of a section, whose own checks become config errors.

    A message that begins with one of the section's keys names that key:
    ``ValueError("rounds must be >= 1")`` becomes
    ``schedule.rounds: must be >= 1``, and ``"weights.3 ..."`` names
    ``policy.weights.3``.
    """
    try:
        return make(**values)
    except (ValueError, TypeError, OverflowError) as exc:
        message = str(exc)
        head, _, rest = message.partition(" ")
        if rest and any(f.name == head.partition(".")[0] for f in fields):
            path, message = _join(path, head), rest
        raise ConfigError(f"{path or 'config'}: {message}") from None


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
    # A file-backed domain takes its sizes from its file; DomainConfig refuses them there.
    for key in ("tag",) if csv_raw is not None else ("tag", "train_samples", "eval_samples"):
        if values[key] is None:
            raise ConfigError(f"{node._full(key)}: required key is missing")

    recipe = csv = None
    if csv_raw is not None:
        csv_node = node.child("csv")
        values["csv"] = _read(csv_node, _CSV)
        csv = _build(CsvSource, values["csv"], csv_node.path, _CSV)
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
        recipe = _build(DomainRecipe, recipe_values, recipe_node.path, _RECIPE)
        # The recipe holds float arrays; emitting those canonicalizes integer literals.
        values["recipe"] = {f.name: getattr(recipe, f.name) for f in _RECIPE}
    if recipe is not None:
        _check_recipe_shape(recipe, model, node._full("recipe"))

    domain = _build(DomainConfig, {**values, "recipe": recipe, "csv": csv}, node.path, _DOMAIN)
    return domain, {key: value for key, value in values.items() if value is not None}


def _parse_weights(raw: dict, client_count: int) -> dict[int, float]:
    node = _Node(raw, "policy.weights")
    return {_client_id(node._full(key), key, client_count): node.get(key, float) for key in raw}


def parse_config(raw: dict) -> ExperimentConfig:
    """Validate a raw config dict and fill every default.

    Each section's read values replace its raw dict in ``top``; a JSON-ready
    copy of ``top`` is the canonical form.
    """
    top = _read(_Node(raw, ""), _ROOT)
    model = _build(ModelSpec, _section(top, "model", _MODEL), "model", _MODEL)

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

    partition = _build(PartitionPlan, _section(top, "partition", _PARTITION), "partition", _PARTITION)
    schedule = _build(TrainingSchedule, _section(top, "schedule", _SCHEDULE), "schedule", _SCHEDULE)

    policy_values = _section(top, "policy", _POLICY)
    if policy_values["weights"] is not None:
        policy_values["weights"] = _parse_weights(policy_values["weights"], client_count)
    policy = _build(AggregationPolicy, policy_values, "policy", _POLICY)
    if policy.privacy_derived and policy.weights is not None:
        raise ConfigError("policy.weights: must be null when privacy_derived derives them")
    if policy.kind == POLICY_CUSTOM and not policy.privacy_derived:
        try:
            policy_coefficients(policy, {cid: 1 for cid in range(client_count)})
        except ValueError as exc:
            raise ConfigError(f"policy.weights: {exc}") from None

    privacy = _section(top, "privacy", _PRIVACY)
    overrides = privacy.pop("client_overrides")
    default_budget = _build(PrivacyBudget, privacy, "privacy", _BUDGET)
    budget_overrides, privacy["client_overrides"] = {}, {}
    for key, value in overrides.items():
        path = f"privacy.client_overrides.{key}"
        cid = _client_id(path, key, client_count)
        budget = _read(_Node(value, path), _BUDGET, defaults=vars(default_budget))
        budget_overrides[cid] = _build(PrivacyBudget, budget, path, _BUDGET)
        privacy["client_overrides"][cid] = budget

    dim = param_dim(model)
    for i, value in enumerate(top["tracked_indices"]):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"tracked_indices[{i}]: expected int")
        if not 0 <= value < dim:
            raise ConfigError(f"tracked_indices[{i}]: out of range for parameter dim {dim}")

    transport = _build(TransportConfig, _section(top, "transport", _TRANSPORT), "transport", _TRANSPORT)

    return _build(
        ExperimentConfig,
        {
            "seed": top["seed"],
            "model": model,
            "domains": domains,
            "partition": partition,
            "schedule": schedule,
            "policy": policy,
            "default_budget": default_budget,
            "budget_overrides": budget_overrides,
            "secure_aggregation": top["secure_aggregation"],
            "scale_bits": top["fixed_point_scale_bits"],
            "tracked_indices": tuple(top["tracked_indices"]),
            "transport": transport,
            "output_dir": top["output_dir"],
            "canonical": _plain(top),
        },
        "",
        _ROOT,
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
    except ValueError:  # not JSON, or an integer beyond Python's digit limit
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
    except ValueError as exc:  # JSONDecodeError, or an integer beyond Python's digit limit
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
