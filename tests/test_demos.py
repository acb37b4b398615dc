"""Each demo script runs to completion against the sources in src/."""

import shutil

import pytest

from conftest import ROOT, run_python

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # Demos read configs/ and write runs/ relative to the working directory.
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    result = run_python([str(demo)], cwd=tmp_path, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
