#!/usr/bin/env python3
"""fedmesh benchmark: two fixed federations, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim_scaled_secure --seed 1 --seconds 55 --trace 0

The run repeats whole federations of the workload until ``--seconds`` is
spent, checks every federation's outputs, and prints one JSON object as
its last line of standard output: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
``--quick`` runs one short federation, for the smoke test only.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
QUICK_ROUNDS = 20


def _import_program() -> None:
    """Put the checkout's fedmesh first on the path; refuse to run without it."""
    package = SRC / "fedmesh"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: fedmesh sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import fedmesh

    if Path(fedmesh.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported fedmesh from {fedmesh.__file__}, not {package}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true", help="one short federation (smoke test)")
    parser.add_argument(
        "--spans",
        type=Path,
        default=None,
        help="JSONL file for the traced spans (default .perfbench_runs/spans/WORKLOAD-SEED.jsonl)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import measure

    work = workloads.build(args.workload, args.seed, QUICK_ROUNDS if args.quick else None)
    run_dir = RUNS_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        run = measure.Run(work, run_dir, args.quick)
        deadline = time.monotonic() + args.seconds
        if args.trace:
            spans_path = args.spans or RUNS_DIR / "spans" / f"{args.workload}-{args.seed}.jsonl"
            metrics = measure.per_layer(run, deadline, spans_path)
        else:
            metrics = measure.end_to_end(run, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for failure in run.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
