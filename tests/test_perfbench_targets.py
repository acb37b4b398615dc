"""The functions that the benchmark's traced pass wraps still live where it looks.

``perfbench/spans.py`` wraps each ``(owner, attr)`` of its ``TARGETS`` by
reading ``owner.__dict__[attr]``.  A name that the program drops or moves
would otherwise fail only in ``perfbench/test_smoke.py``, which this suite
does not collect.
"""

import importlib.util
import sys

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
