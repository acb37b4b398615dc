"""The functions that the benchmark's traced pass wraps still live where it looks.

``perfbench/spans.py`` wraps each ``(owner, attr)`` of its ``TARGETS`` by
reading ``owner.__dict__[attr]``.  A name that the program drops or moves
would otherwise fail only in ``perfbench/test_smoke.py``, which this suite
does not collect.  The benchmark's own correctness checks run here too,
on short federations of each workload.
"""

import importlib
import importlib.util
import sys
import time

import pytest

from conftest import ROOT


def test_every_span_target_is_in_its_owners_namespace(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    # The module's dataclass looks its own module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans.TARGETS if attr not in vars(owner)]
    assert not missing, missing


@pytest.mark.parametrize("workload", ["socket_secure_2c", "sim_scaled_secure"])
def test_the_benchmarks_correctness_checks_pass(monkeypatch, tmp_path, workload):
    # The traced pass runs every check of perfbench/checks.py, the traced
    # mask cancellation and frame layout included, on short federations.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    measure = importlib.import_module("measure")
    workloads = importlib.import_module("workloads")
    run = measure.Run(workloads.build(workload, 5, rounds=3), tmp_path, quick=True)
    measure.per_layer(run, time.monotonic(), tmp_path / "spans.jsonl")
    assert run.failures == []
    assert run.failed == 0
