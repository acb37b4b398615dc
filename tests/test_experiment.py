import dataclasses
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.config import ConfigError, parse_config
from fedmesh.evaluation import evaluate
from fedmesh.experiment import build_engine
from fedmesh.federation import RoundInputs
from fedmesh.model import Dataset, loss, param_dim

from conftest import ROOT, write_dataset_csv


def _base_raw(**updates):
    raw = {
        "seed": 5,
        "model": {"feature_dim": 2, "class_count": 3},
        "domains": [
            {"recipe": "medical", "train_samples": 80, "eval_samples": 40, "clients": 2},
            {"recipe": "user", "train_samples": 60, "eval_samples": 30},
        ],
        "schedule": {"rounds": 2, "local_epochs": 2},
    }
    raw.update(updates)
    return raw


def test_client_ids_count_up_in_domain_order():
    engine = build_engine(parse_config(_base_raw()))
    clients = list(engine.clients.values())
    assert [c.client_id for c in clients] == [0, 1, 2]
    assert [c.domain_tag for c in clients] == ["medical", "medical", "user"]
    # Domain shards cover the domain's training data.
    assert len(clients[0].data) + len(clients[1].data) == 80
    assert len(clients[2].data) == 60
    assert len(engine.pooled_test) == 40 + 30
    assert set(engine.eval_sets) == {"medical", "user"}


def test_setup_is_deterministic():
    a = build_engine(parse_config(_base_raw()))
    b = build_engine(parse_config(_base_raw()))
    for ca, cb in zip(a.clients.values(), b.clients.values()):
        assert np.array_equal(ca.data.features, cb.data.features)
    c = build_engine(parse_config(_base_raw(seed=6)))
    assert not np.array_equal(a.clients[0].data.features, c.clients[0].data.features)


def test_inline_recipe_domain():
    raw = _base_raw()
    raw["domains"].append(
        {
            "tag": "synthetic",
            "recipe": {
                "class_means": [[2.0, 0.0], [-1.0, 1.5], [-1.0, -1.5]],
                "class_covariance_scale": 0.5,
                "mean_shift": [0.2, -0.1],
                "label_prior": [0.4, 0.3, 0.3],
            },
            "train_samples": 50,
            "eval_samples": 20,
        }
    )
    last = list(build_engine(parse_config(raw)).clients.values())[-1]
    assert last.domain_tag == "synthetic"
    assert len(last.data) == 50


def _write_csv_domain(tmp_path, n=90, k=3, seed=1):
    rng = np.random.default_rng(seed)
    dataset = Dataset(rng.normal(0, 1, (n, 2)), rng.integers(0, k, n), k)
    path = tmp_path / "domain.csv"
    write_dataset_csv(path, dataset, ("f0", "f1", "label"), [str(c) for c in range(k)])
    return path, dataset


def test_csv_domain_end_to_end(tmp_path):
    path, dataset = _write_csv_domain(tmp_path)
    raw = _base_raw()
    raw["domains"] = [
        {
            "tag": "filecsv",
            "csv": {
                "path": str(path),
                "feature_columns": ["f0", "f1"],
                "label_column": "label",
                "eval_fraction": 0.25,
            },
            "clients": 2,
        }
    ]
    config = parse_config(raw)
    engine = build_engine(config)
    train_total = sum(len(c.data) for c in engine.clients.values())
    eval_total = len(engine.eval_sets["filecsv"])
    assert train_total + eval_total == len(dataset)
    assert eval_total == round(0.25 * len(dataset))
    # Full engine run over the CSV-backed domain.
    reports = engine.run()
    assert len(reports) == 2
    assert np.isfinite(reports[-1].global_loss)


def test_csv_domain_class_count_mismatch(tmp_path):
    path, _ = _write_csv_domain(tmp_path, k=2)
    raw = _base_raw()
    raw["domains"] = [
        {
            "tag": "filecsv",
            "csv": {"path": str(path), "feature_columns": ["f0", "f1"], "label_column": "label"},
        }
    ]
    with pytest.raises(ConfigError, match="classes"):
        build_engine(parse_config(raw))


def test_csv_domain_missing_file():
    raw = _base_raw()
    raw["domains"] = [
        {
            "tag": "filecsv",
            "csv": {"path": "/nonexistent.csv", "feature_columns": ["f0", "f1"], "label_column": "y"},
        }
    ]
    with pytest.raises(ConfigError, match="domains\\[0\\].csv"):
        build_engine(parse_config(raw))


def test_csv_config_round_trips_canonically(tmp_path):
    path, _ = _write_csv_domain(tmp_path)
    raw = _base_raw()
    raw["domains"].append(
        {
            "tag": "filecsv",
            "csv": {"path": str(path), "feature_columns": ["f0", "f1"], "label_column": "label"},
        }
    )
    from fedmesh.config import canonical_text

    config = parse_config(raw)
    text = canonical_text(config)
    assert canonical_text(parse_config(json.loads(text))) == text


# -- the one-pass round report -------------------------------------------------


def _scaled_raw():
    """64 clients in 4 synthetic domains of 16, d=32, K=10, 500 eval rows each."""
    rng = np.random.default_rng(2024)
    means = rng.normal(0.0, 0.45, (10, 32))
    domains = [
        {
            "tag": f"domain{i}",
            "recipe": {
                "class_means": means.tolist(),
                "class_covariance_scale": 1.0,
                "mean_shift": rng.normal(0.0, 0.5, 32).tolist(),
                "label_prior": rng.dirichlet(np.full(10, 4.0)).tolist(),
            },
            "train_samples": 3200,
            "eval_samples": 500,
            "clients": 16,
        }
        for i in range(4)
    ]
    return {
        "seed": 11,
        "model": {"feature_dim": 32, "class_count": 10},
        "domains": domains,
        "schedule": {"rounds": 2, "local_epochs": 5},
        "policy": {"kind": "size_weighted"},
        "privacy": {"enabled": True, "epsilon": 8.0, "delta": 1e-5, "clip_norm": 1.0},
        "secure_aggregation": True,
        "tracked_indices": [0, 1, 5],
    }


@functools.cache
def _trained_engine(name):
    if name == "scaled":
        raw = _scaled_raw()
    else:
        raw = json.loads((ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8"))
        raw["schedule"]["rounds"] = 2
    engine = build_engine(parse_config(raw))
    engine.run()
    return engine


def _assert_report_is_loss_and_evaluate(engine, report, spec, params):
    def bits(value):
        return np.float64(value).tobytes()

    pooled = engine.pooled_test
    assert list(report.domain_losses) == sorted(engine.eval_sets)
    for tag, dataset in engine.eval_sets.items():
        assert bits(report.domain_losses[tag]) == bits(loss(spec, params, dataset))
    assert bits(report.global_loss) == bits(loss(spec, params, pooled))
    want = evaluate(spec, params, pooled)
    assert [bits(v) for v in dataclasses.astuple(report.global_metrics)] == [
        bits(v) for v in dataclasses.astuple(want)
    ]


@pytest.mark.parametrize("name", ["three_domains", "iid_baseline", "scaled"])
def test_trained_rounds_report_loss_and_evaluate_on_pooled_test(name):
    engine = _trained_engine(name)
    if name == "three_domains":  # the report lists tags sorted; the join keeps config order
        assert list(engine.eval_sets) == ["medical", "financial", "user"]
    pooled = engine.pooled_test
    assert np.array_equal(pooled.labels, np.concatenate([e.labels for e in engine.eval_sets.values()]))
    assert np.array_equal(pooled.features, np.concatenate([e.features for e in engine.eval_sets.values()]))
    _assert_report_is_loss_and_evaluate(engine, engine.reports[-1], engine.spec, engine.params)


@pytest.mark.parametrize("name", ["three_domains", "iid_baseline", "scaled"])
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.0, 0.1, 3.0, 1e3]),
    l2=st.sampled_from([0.0, 0.25]),
)
def test_one_pass_report_is_bitwise_loss_and_evaluate_on_pooled_test(name, seed, scale, l2):
    engine = _trained_engine(name)
    spec = dataclasses.replace(engine.spec, l2_coefficient=l2)
    params = np.random.default_rng(seed).normal(0.0, 1.0, param_dim(spec)) * scale
    saved = engine.spec, engine.params
    engine.spec, engine.params = spec, params
    try:
        report = engine._build_report(RoundInputs(0, [], {}))
    finally:
        engine.spec, engine.params = saved
    _assert_report_is_loss_and_evaluate(engine, report, spec, params)
