"""Property test over every config key that the ``_Field`` tables list.

Each example sets one key of a small, valid config to a drawn value:
- a value that is wrong for the key (wrong type, bool for int, NaN or +-inf
  for a float, a non-finite entry in a number list) must make ``validate``
  exit 1 with exactly one line on stderr;
- a value near one of the key's bounds may be accepted or refused; if
  ``validate`` accepts it, a 2-round ``simulate`` exits 0-3 without an
  exception leaving ``main``, and each round's aggregation coefficients
  form a convex combination.

Sizes, rounds, epochs and client counts are drawn no larger than the
bundled configs', so no example allocates more than they do.
"""

import copy
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from fedmesh import config as config_module
from fedmesh.cli import main
from fedmesh.federation import FederationEngine
from fedmesh.model import Dataset

from conftest import write_dataset_csv

CLIENTS = 4

# The base config: one built-in, one inline-recipe and one CSV domain, with
# every section spelled out so that each key has a value to replace.
BASE = {
    "seed": 3,
    "model": {"family": "softmax_linear", "feature_dim": 2, "class_count": 3, "l2_coefficient": 0.0},
    "domains": [
        {"recipe": "medical", "train_samples": 40, "eval_samples": 20, "clients": 2},
        {
            "tag": "inline",
            "recipe": {
                "class_means": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
                "class_covariance_scale": 0.5,
                "mean_shift": [0.1, 0.0],
                "label_prior": [0.4, 0.3, 0.3],
            },
            "train_samples": 30,
            "eval_samples": 10,
        },
        {
            "tag": "file",
            "csv": {"path": None, "feature_columns": ["f0", "f1"], "label_column": "label", "eval_fraction": 0.25},
        },
    ],
    "partition": {"scheme": "dirichlet_label_skew", "dirichlet_alpha": 1.0, "min_samples_per_client": 1, "seed": 0},
    "schedule": {
        "rounds": 2,
        "local_epochs": 1,
        "batch_size": None,
        "learning_rate": 0.1,
        "lr_decay": 0.99,
        "participation_fraction": 1.0,
    },
    "policy": {
        "kind": "custom_weighted",
        "weights": {"0": 1.0, "1": 2.0, "2": 1.0, "3": 0.5},
        "privacy_derived": False,
        "epsilon_cap": 8.0,
    },
    "privacy": {
        "enabled": True,
        "epsilon": 1.0,
        "delta": 1e-5,
        "clip_norm": 1.0,
        "client_overrides": {"0": {"enabled": True, "epsilon": 0.5, "delta": 1e-5, "clip_norm": 1.0}},
    },
    "secure_aggregation": True,
    "fixed_point_scale_bits": 24,
    "tracked_indices": [0, 5],
    "transport": {"host": "127.0.0.1", "port": 7700, "timeout_seconds": 30.0},
    "output_dir": "unused",
}

# Where each table's section sits in BASE.
SECTIONS = (
    ((), config_module._ROOT),
    (("model",), config_module._MODEL),
    (("domains", 0), config_module._DOMAIN),
    (("domains", 1, "recipe"), config_module._RECIPE),
    (("domains", 2, "csv"), config_module._CSV),
    (("partition",), config_module._PARTITION),
    (("schedule",), config_module._SCHEDULE),
    (("policy",), config_module._POLICY),
    (("privacy",), config_module._PRIVACY),
    (("privacy", "client_overrides", "0"), config_module._BUDGET),
    (("transport",), config_module._TRANSPORT),
)
KEYS = [(*path, field.name, field.types) for path, fields in SECTIONS for field in fields]

NON_FINITE = [math.nan, math.inf, -math.inf]
# Values of the wrong type for a key of each type.
WRONG = {
    int: ["1", 1.5, True],
    float: ["1.0", True, []],
    str: [1, {}],
    bool: [1, "true"],
    list: ["x", {}],
    dict: ["x", []],
    (str, dict): [1, []],
}
# Values on and either side of the keys' bounds; counts and sizes stay small.
SMALL_INTS = [0, 1, 2]
NEAR_BOUNDS = {
    int: [-1, 0, 1, 52, 53, 65535, 65536, 2**64 - 1, 2**64],
    float: [-1.0, 0.0, 5e-324, 1.0, 1.5, 86400.0, 86401.0, 1.7e308],
    str: ["", "bogus"],
    bool: [False, True],
    list: [[]],
    dict: [{}],
    (str, dict): ["nope", "user", {}],
}
# Other values that some keys accept, or refuse because of another key.
MORE = {
    "tag": ["inline"],
    "label_column": ["f0"],
    "kind": ["uniform", "size_weighted"],
    "scheme": ["iid"],
    "tracked_indices": [[-1], [9], [0, 0]],
}
SIZE_KEYS = {"train_samples", "eval_samples", "clients", "rounds", "local_epochs", "batch_size", "min_samples_per_client"}
NUMBER_LISTS = {"class_means", "mean_shift", "label_prior"}


def _with_entry(values, entry):
    """``values`` with its first number replaced by ``entry``."""
    out = copy.deepcopy(values)
    target = out
    while isinstance(target[0], list):
        target = target[0]
    target[0] = entry
    return out


def _values(key, types, base):
    """(value, must_refuse) pairs to try for one key."""
    bad = list(WRONG[types]) + (NON_FINITE if types is float else [])
    near = (SMALL_INTS if key in SIZE_KEYS else NEAR_BOUNDS[types]) + MORE.get(key, [])
    if key in NUMBER_LISTS:
        bad += [_with_entry(base, v) for v in NON_FINITE + ["x"]]
        near = near + [_with_entry(base, 1e308), _with_entry(base, -1.0)]
    if key == "weights":
        near = near + [{str(c): v for c in range(CLIENTS)} for v in NEAR_BOUNDS[float]]
        bad += [{str(c): v for c in range(CLIENTS)} for v in NON_FINITE + ["1"]]
    if key == "tracked_indices":
        bad += [[True], ["0"], [1.5]]
    return [(v, True) for v in bad] + [(v, False) for v in near + [None]]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("property")
    rng = np.random.default_rng(0)
    dataset = Dataset(rng.normal(0, 1, (40, 2)), rng.integers(0, 3, 40), 3)
    write_dataset_csv(path / "domain.csv", dataset, ("f0", "f1", "label"), ("a", "b", "c"))
    return path


@pytest.fixture
def coefficients_begun(monkeypatch):
    """The aggregation coefficients of every round the engine begins."""
    log = []
    begin_round = FederationEngine.begin_round

    def recording_begin_round(engine, round_index):
        inputs = begin_round(engine, round_index)
        log.append(inputs.coefficients)
        return inputs

    monkeypatch.setattr(FederationEngine, "begin_round", recording_begin_round)
    return log


_runs = itertools.count()


@pytest.mark.parametrize("key", KEYS, ids=lambda k: ".".join(map(str, k[:-1])))
@settings(
    max_examples=25,  # more than any key has values, so each is tried once
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_one_bad_key_is_refused_in_one_line_or_runs_cleanly(workdir, capsys, coefficients_begun, key, data):
    *path, name, types = key
    coefficients_begun.clear()
    raw = copy.deepcopy(BASE)
    raw["domains"][2]["csv"]["path"] = str(workdir / "domain.csv")
    section = raw
    for part in path:
        section = section[part]
    value, must_refuse = data.draw(st.sampled_from(_values(name, types, section.get(name))))
    section[name] = value

    config_path = workdir / f"config{next(_runs)}.cfg"
    config_path.write_text(json.dumps(raw))
    code = main(["validate", "--config", str(config_path)])
    out, err = capsys.readouterr()
    assert code in (0, 1)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
        return
    assert not must_refuse, f"validate accepted {name}={value!r}"
    # The canonical form is strict JSON: no NaN or Infinity literals.
    json.loads(out, parse_constant=lambda c: pytest.fail(f"canonical text holds {c}"))

    out_dir = workdir / f"run{next(_runs)}"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_dir)]) in (0, 1, 2, 3)
    capsys.readouterr()
    for coefficients in coefficients_begun:
        assert abs(sum(coefficients.values()) - 1.0) <= 1e-9, coefficients
