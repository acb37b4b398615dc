"""The two kinds of run: untraced end to end, and the traced layer pass.

Both repeat whole federations of one workload until the run's time is
spent and check every federation they run (see :mod:`checks`).
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import federations
import spans
import workloads

# Whole federations every full run makes, whatever its time, so that the
# tail percentile below always has at least ten rounds beyond it.
MIN_FEDERATIONS = {workloads.SOCKET: 5, workloads.SECURE: 10}
TAIL_PERCENTILE = 95
# Untraced + traced federation pairs every full traced pass makes.
MIN_TRACED_PAIRS = 2


class Run:
    """Repeated federations of one workload, every one of them checked."""

    def __init__(self, work: workloads.Workload, run_dir: Path, quick: bool):
        self.work = work
        self.run_dir = run_dir
        self.quick = quick
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(work.config, indent=1), encoding="utf-8")
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self._dirs = 0
        self._digests = None
        self._reference = None

    def _fresh_dir(self) -> Path:
        self._dirs += 1
        return self.run_dir / f"out{self._dirs}"

    def federation(self, tracer=None):
        """Run and check one federation; None if it failed."""
        drive = federations.serve if self.work.socket else federations.simulate
        self.attempted += self.work.rounds
        out = self._fresh_dir()
        try:
            fed = drive(self.config_path, out, tracer)
        except Exception as exc:  # counted as failed rounds, reported on stderr
            print(f"perfbench: federation failed: {exc!r}", file=sys.stderr)
            self.failed += self.work.rounds
            shutil.rmtree(out, ignore_errors=True)
            return None
        self._check(fed)
        shutil.rmtree(out)
        fed.engine = None
        return fed

    def _check(self, fed) -> None:
        config, engine = self.work.config, fed.engine
        found = checks.evaluation(config, engine) + checks.learning(engine)
        found += checks.privacy(config, engine)
        artifact_failures, digests = checks.artifacts(fed.out_dir)
        found += artifact_failures
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            found.append("artifacts differ between repeats at one seed")
        if self.work.socket:
            found += checks.same_params(engine.params, self._reference_params())
        self.failures.extend(found)

    def _reference_params(self):
        """Final parameters of an in-process simulate of the same config (untimed)."""
        if self._reference is None:
            self._reference = federations.reference_params(self.config_path)
        return self._reference

    def done(self, deadline: float, minimum_rounds: int, next_seconds: float) -> bool:
        """Enough rounds made, and the next federation would overrun the run's time."""
        if self.attempted < minimum_rounds:
            return False
        return self.quick or time.monotonic() + next_seconds > deadline


def tail_ms(round_s: list[float]) -> float:
    """Round time at the tail percentile.

    Only a quick run has too few rounds to leave ten beyond that
    percentile; it reports its slowest round.
    """
    if len(round_s) * (100 - TAIL_PERCENTILE) / 100 < 10:
        return 1000.0 * max(round_s)
    cuts = statistics.quantiles(round_s, n=100, method="inclusive")
    return 1000.0 * cuts[TAIL_PERCENTILE - 1]


def end_to_end(run: Run, deadline: float) -> dict:
    feds = []
    minimum = 1 if run.quick else MIN_FEDERATIONS[run.work.name]
    while True:
        fed = run.federation()
        if fed is not None:
            feds.append(fed)
        if run.done(deadline, minimum * run.work.rounds, fed.total_s if fed else 0.0):
            break
    if not feds:
        raise SystemExit("perfbench: every federation failed")
    rounds = [t for fed in feds for t in fed.round_s]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(f.setup_s for f in feds), "s"),
        "total_s": (statistics.median(f.total_s for f in feds), "s"),
        "samples_per_s": (sum(f.samples for f in feds) / sum(rounds), "samples/s"),
        "round_p50_ms": (1000.0 * statistics.median(rounds), "ms"),
        "round_tail_ms": (tail_ms(rounds), "ms"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }


def per_layer(run: Run, deadline: float, spans_path: Path) -> dict:
    """Alternate untraced and traced federations; layer figures come from the traced.

    The spans of the last traced federation are written to ``spans_path``
    when the pass ends.
    """
    tracer = spans.Tracer()
    plain, traced, layer = [], [], []
    minimum = 2 * run.work.rounds * (1 if run.quick else MIN_TRACED_PAIRS)
    while True:
        fed = run.federation()
        if fed is not None:
            plain.extend(fed.round_s)
        tracer.reset()
        wrappers = spans.Wrappers(tracer)
        try:
            fed = run.federation(tracer)
        finally:
            wrappers.remove()
        if fed is not None:
            traced.extend(fed.round_s)
            layer.append(_traced_figures(run, tracer, fed))
        if run.done(deadline, minimum, 2 * fed.total_s if fed else 0.0):
            break
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    if not layer or not plain:
        raise SystemExit("perfbench: no traced or no untraced federation completed")
    figures = {name: statistics.fmean(f[name] for f in layer) for name in layer[0]}
    untraced_p50 = statistics.median(plain)
    figures["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) - untraced_p50) / untraced_p50
    )
    return {name: (value, _layer_unit(name)) for name, value in figures.items()}


def _traced_figures(run: Run, tracer: spans.Tracer, fed) -> dict:
    config = run.work.config
    figures = spans.summarize(
        tracer,
        rounds=len(fed.round_s),
        round_seconds=sum(fed.round_s),
        round_thread="MainThread",
        client_threads=fed.clients,
        round_start=fed.round_start,
    )
    figures["outputs.bytes"] = float(fed.artifact_bytes)
    if config["secure_aggregation"]:
        run.failures += checks.mask_cancellation(tracer, config["fixed_point_scale_bits"])
    if run.work.socket:
        run.failures += checks.frame_layout(
            config, fed.clients, figures["transport.frames"], figures["transport.bytes"]
        )
    return figures


def _layer_unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".bytes"):
        return "B"
    return "count"
