import csv
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedmesh.model import Dataset, ModelSpec, param_dim

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd, timeout=60):
    """Run ``python ARGS`` in a fresh interpreter that imports fedmesh from src/."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def write_dataset_csv(path, dataset, header, label_names):
    """Write ``dataset`` as CSV: ``header``, then features in ``repr`` form and a label name."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for feats, label in zip(dataset.features, dataset.labels):
            writer.writerow([*(repr(float(v)) for v in feats), label_names[label]])


def flag_clients(engine, flagged_ids):
    """Make the given clients diverge in ``engine``, so their updates come back flagged.

    Their local steps run at an infinite learning rate; the engine flags
    and releases such an update itself, masked share included.
    """
    original = engine.run_local

    def run_local(cid, inputs):
        if cid not in flagged_ids:
            return original(cid, inputs)
        schedule = engine.schedule
        engine.schedule = dataclasses.replace(schedule, learning_rate=math.inf)
        try:
            return original(cid, inputs)
        finally:
            engine.schedule = schedule

    engine.run_local = run_local
    return engine


@pytest.fixture
def spec():
    return ModelSpec(feature_dim=2, class_count=3)


def random_instance(rng, d=None, k=None, n=None, theta_scale=0.8):
    """A random small (spec, params, dataset) triple for oracle checks."""
    d = d or int(rng.integers(1, 5))
    k = k or int(rng.integers(2, 5))
    n = n or int(rng.integers(3, 13))
    spec = ModelSpec(feature_dim=d, class_count=k, l2_coefficient=float(rng.choice([0.0, 0.1])))
    params = rng.normal(0.0, theta_scale, param_dim(spec))
    features = rng.normal(0.0, 1.0, (n, d))
    labels = rng.integers(0, k, n)
    # Guarantee every dataset stays valid even if a class is absent.
    return spec, params, Dataset(features, labels, k)
