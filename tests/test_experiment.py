import json

import numpy as np
import pytest

from fedmesh.config import ConfigError, parse_config
from fedmesh.experiment import build_engine, build_setup
from fedmesh.model import Dataset

from conftest import write_dataset_csv


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
    setup = build_setup(parse_config(_base_raw()))
    assert [c.client_id for c in setup.clients] == [0, 1, 2]
    assert [c.domain_tag for c in setup.clients] == ["medical", "medical", "user"]
    # Domain shards cover the domain's training data.
    assert len(setup.clients[0].data) + len(setup.clients[1].data) == 80
    assert len(setup.clients[2].data) == 60
    assert len(setup.pooled_test) == 40 + 30
    assert set(setup.eval_sets) == {"medical", "user"}


def test_setup_is_deterministic():
    a = build_setup(parse_config(_base_raw()))
    b = build_setup(parse_config(_base_raw()))
    for ca, cb in zip(a.clients, b.clients):
        assert np.array_equal(ca.data.features, cb.data.features)
    c = build_setup(parse_config(_base_raw(seed=6)))
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
    setup = build_setup(parse_config(raw))
    assert setup.clients[-1].domain_tag == "synthetic"
    assert len(setup.clients[-1].data) == 50


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
    setup = build_setup(config)
    train_total = sum(len(c.data) for c in setup.clients)
    eval_total = len(setup.eval_sets["filecsv"])
    assert train_total + eval_total == len(dataset)
    assert eval_total == round(0.25 * len(dataset))
    # Full engine run over the CSV-backed domain.
    reports = build_engine(config).run()
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
        build_setup(parse_config(raw))


def test_csv_domain_missing_file():
    raw = _base_raw()
    raw["domains"] = [
        {
            "tag": "filecsv",
            "csv": {"path": "/nonexistent.csv", "feature_columns": ["f0", "f1"], "label_column": "y"},
        }
    ]
    with pytest.raises(ConfigError, match="domains\\[0\\].csv"):
        build_setup(parse_config(raw))


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
