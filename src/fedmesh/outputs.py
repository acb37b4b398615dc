"""CSV trace emitters and the run manifest.

Stable schemas, one header row each, floats written with ``repr`` so
identical runs produce byte-identical files:

* ``loss_curves.csv``: round, domain, loss - per-domain held-out loss of
  the global model (the loss-decline figure's data).
* ``param_trace.csv``: round, domain_eval_tag, index, value - tracked
  parameter coordinates; the ``global`` tag is the global model, domain
  tags are the mean of that domain's post-local-training models.
* ``metrics.csv`` / ``baseline_metrics.csv``: round, accuracy, precision,
  recall, f1 - pooled held-out metrics per round.
* ``clients.csv``: per round and client - participation, losses, and the
  noise receipt fields.
* ``manifest.json``: config hash, artifact version, timestamps, and a
  SHA-256 inventory of the emitted files; written atomically at run end.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path

from .config import ConfigError, ExperimentConfig, config_hash
from .evaluation import MetricsReport, RoundReport

ARTIFACT_VERSION = "0.1.0"

LOSS_CURVES = "loss_curves.csv"
PARAM_TRACE = "param_trace.csv"
METRICS = "metrics.csv"
BASELINE_METRICS = "baseline_metrics.csv"
CLIENTS = "clients.csv"
MANIFEST = "manifest.json"


def _fmt(value: float) -> str:
    return repr(float(value))


def prepare_output_dir(path: str, force: bool = False) -> Path:
    """Create the output directory; refuse a non-empty one without force."""
    out = Path(path)
    if out.exists():
        if not out.is_dir():
            raise ConfigError(f"output path {path!r} exists and is not a directory")
        if any(out.iterdir()) and not force:
            raise ConfigError(
                f"output directory {path!r} is not empty; pass --force to overwrite"
            )
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output path {path!r} cannot be created: {exc.strerror}") from None
    return out


@contextlib.contextmanager
def _writing(path: Path):
    """A file that cannot be written at ``path`` is a config error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"output file {str(path)!r} cannot be written: {exc.strerror}") from None


@contextlib.contextmanager
def _open_artifact(path: Path):
    """An artifact opened for writing."""
    with _writing(path), open(path, "w", newline="", encoding="utf-8") as handle:
        yield handle


def _write_table(path: Path, header: tuple[str, ...], rows) -> None:
    """One CSV artifact: a header row, then ``rows`` as given."""
    with _open_artifact(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _loss_rows(reports: list[RoundReport]):
    for report in reports:
        for domain, value in sorted(report.domain_losses.items()):
            yield report.round_index, domain, _fmt(value)


def _trace_rows(reports: list[RoundReport]):
    for report in reports:
        for tag, values in sorted(report.tracked.items()):
            for index, value in enumerate(values):
                yield report.round_index, tag, index, _fmt(value)


def _metric_rows(rows):
    for round_index, m in rows:
        yield round_index, _fmt(m.accuracy), _fmt(m.precision), _fmt(m.recall), _fmt(m.f1)


def _client_rows(reports: list[RoundReport]):
    for report in reports:
        for c in report.clients:
            budget = ["" if v is None else _fmt(v) for v in (c.epsilon, c.delta)]
            r = c.receipt
            noise = [r.mechanism, _fmt(r.sigma), int(r.clip_applied), _fmt(r.pre_clip_norm)] if r else [""] * 4
            yield [
                report.round_index, c.client_id, c.domain_tag, int(c.participated), int(c.diverged),
                c.sample_count, _fmt(c.loss_before), _fmt(c.loss_after), *budget, *noise,
            ]


_METRIC_HEADER = ("round", "accuracy", "precision", "recall", "f1")
_CLIENT_HEADER = (
    "round", "client_id", "domain", "participated", "diverged", "sample_count", "loss_before",
    "loss_after", "epsilon", "delta", "mechanism", "sigma", "clip_applied", "pre_clip_norm",
)

# (file name, header, rows from the round reports) per run artifact, in write order.
_RUN_TABLES = (
    (LOSS_CURVES, ("round", "domain", "loss"), _loss_rows),
    (PARAM_TRACE, ("round", "domain_eval_tag", "index", "value"), _trace_rows),
    (METRICS, _METRIC_HEADER, lambda reports: _metric_rows((r.round_index, r.global_metrics) for r in reports)),
    (CLIENTS, _CLIENT_HEADER, _client_rows),
)


def write_baseline_metrics(path: Path, rows: list[tuple[int, MetricsReport]]) -> None:
    _write_table(path, _METRIC_HEADER, _metric_rows(rows))


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path,
    config: ExperimentConfig,
    file_names: list[str],
    started_at: datetime,
) -> None:
    """Atomically write the run manifest (tmp file + rename)."""
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "config_hash": config_hash(config).hex(),
        "started_at": started_at.isoformat(),
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "files": [
            {
                "name": name,
                "bytes": (out_dir / name).stat().st_size,
                "sha256": _sha256_file(out_dir / name),
            }
            for name in sorted(file_names)
        ],
    }
    tmp = out_dir / (MANIFEST + ".tmp")
    with _open_artifact(tmp) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    with _writing(out_dir / MANIFEST):
        try:
            os.replace(tmp, out_dir / MANIFEST)
        except OSError:
            tmp.unlink()
            raise


def write_run_artifacts(
    out_dir: Path,
    config: ExperimentConfig,
    reports: list[RoundReport],
    started_at: datetime,
) -> list[str]:
    """Emit every per-round CSV plus the manifest; returns the file names."""
    for name, header, rows in _RUN_TABLES:
        _write_table(out_dir / name, header, rows(reports))
    names = [name for name, _, _ in _RUN_TABLES]
    write_manifest(out_dir, config, names, started_at)
    return names + [MANIFEST]
