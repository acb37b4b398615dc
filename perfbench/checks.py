"""Correctness checks on every federation the benchmark runs.

Each check recomputes a figure apart from the program (own numpy and
``math`` code, own reading of the documented formats) or tests a
property the method must have.  None compares against stored output.
A check returns a list of failure messages; an empty list means it held.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Final pooled accuracy must beat the held-out majority-class rate by this much.
ACCURACY_MARGIN = 0.2

FRAME_HEADER_BYTES = 4 + 1 + 4 + 4 + 4  # magic, type, round, client id, payload length
UPDATE_META_BYTES = 8 + 8 + 4 + 1 + 1 + 1 + 8 + 8 + 2  # the CLIENT_UPDATE/MASKED_SHARE tail


def evaluation(config: dict, engine) -> list[str]:
    """Final pooled accuracy and loss, recomputed with own argmax and log-sum-exp."""
    d = config["model"]["feature_dim"]
    k = config["model"]["class_count"]
    table = np.asarray(engine.params, dtype=np.float64).reshape(k, d + 1)
    features = engine.pooled_test.features
    labels = engine.pooled_test.labels
    logits = features @ table[:, :d].T + table[:, d]
    accuracy = np.count_nonzero(np.argmax(logits, axis=1) == labels) / len(labels)
    top = logits.max(axis=1)
    lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    cross_entropy = float(np.mean(lse - logits[np.arange(len(labels)), labels]))
    l2 = config["model"].get("l2_coefficient", 0.0)
    cross_entropy += 0.5 * l2 * float(np.sum(table[:, :d] ** 2))
    final = engine.reports[-1]
    failures = []
    if accuracy != final.global_metrics.accuracy:
        failures.append(f"accuracy {final.global_metrics.accuracy!r} != recomputed {accuracy!r}")
    if abs(cross_entropy - final.global_loss) > 1e-9 * abs(cross_entropy):
        failures.append(f"loss {final.global_loss!r} != recomputed {cross_entropy!r}")
    return failures


def learning(engine) -> list[str]:
    """Every domain's held-out loss falls; final accuracy beats the majority class."""
    first, last = engine.reports[0], engine.reports[-1]
    failures = [
        f"domain {tag}: loss {first.domain_losses[tag]!r} -> {last.domain_losses[tag]!r}"
        for tag in first.domain_losses
        if not last.domain_losses[tag] < first.domain_losses[tag]
    ]
    labels = engine.pooled_test.labels
    majority = np.bincount(labels).max() / len(labels)
    if not last.global_metrics.accuracy >= majority + ACCURACY_MARGIN:
        failures.append(
            f"final accuracy {last.global_metrics.accuracy:.4f} does not beat the "
            f"majority rate {majority:.4f} by {ACCURACY_MARGIN}"
        )
    return failures


def privacy(config: dict, engine) -> list[str]:
    """Recorded sigma matches the closed form; unclipped updates lie inside the ball."""
    budget = config["privacy"]
    clip_norm, epsilon = budget["clip_norm"], budget["epsilon"]
    sigma = clip_norm * math.sqrt(2.0 * math.log(1.25 / budget["delta"])) / epsilon
    failures = []
    for report in engine.reports:
        for record in report.clients:
            if not record.participated:
                continue
            receipt = record.receipt
            where = f"round {report.round_index} client {record.client_id}"
            if abs(receipt.sigma - sigma) > 1e-12 * sigma:
                failures.append(f"{where}: sigma {receipt.sigma!r} != {sigma!r}")
            if not receipt.clip_applied and not receipt.pre_clip_norm <= clip_norm:
                failures.append(f"{where}: unclipped norm {receipt.pre_clip_norm!r} > C")
    return failures


def mask_cancellation(tracer, scale_bits: int) -> list[str]:
    """Each unmasked sum equals the plain mod-2^64 sum of the pre-mask words."""
    failures = []
    for round_index, client_ids, _, result in tracer.unmasked:
        dim = len(result)
        total = [0] * dim
        for cid in client_ids:
            words = tracer.masked_inputs[(round_index, cid)]
            for i in range(dim):
                total[i] += int(words[i])
        expected = []
        for value in total:
            value %= 1 << 64
            if value >= 1 << 63:
                value -= 1 << 64
            expected.append(value / 2.0**scale_bits)
        if not np.array_equal(np.asarray(expected), result):
            failures.append(f"round {round_index}: unmask_sum differs from the plain sum")
    if not tracer.unmasked:
        failures.append("no unmask_sum call was observed")
    return failures


def frame_layout(config: dict, clients: int, frames: float, size: float) -> list[str]:
    """Frames and bytes counted per round equal those of the FDM1 layout."""
    want = _round_frames(config, clients)
    if (frames, size) != want:
        return [f"round frames/bytes {frames}/{size} != FDM1 layout {want[0]}/{want[1]}"]
    return []


def _round_frames(config: dict, clients: int) -> tuple[int, int]:
    """(frames, bytes) of one secure socket round, from the FDM1 frame layout."""
    dim = config["model"]["class_count"] * (config["model"]["feature_dim"] + 1)
    tracked = len(config["tracked_indices"])
    params = 4 + 8 * dim
    global_model = params + 8 + 1 + 4 + 4 * clients  # coefficient, flags, id list
    masked_share = 4 + 8 * dim + UPDATE_META_BYTES + 8 * tracked
    round_report = 8 + 8
    payload = clients * (global_model + masked_share + round_report)
    frames = 3 * clients
    return frames, payload + frames * FRAME_HEADER_BYTES


def same_params(params: np.ndarray, reference: np.ndarray) -> list[str]:
    a = np.ascontiguousarray(params, dtype=np.float64)
    b = np.ascontiguousarray(reference, dtype=np.float64)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return ["socket final parameters differ from the in-process simulate"]
    return []


def artifacts(out_dir: Path) -> tuple[list[str], dict[str, str]]:
    """Manifest hashes hold; returns failures and a digest of the run's outputs.

    The digest covers every artifact plus the manifest without its
    timestamps, so two repeats at one seed must produce equal digests.
    """
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    failures = []
    digests = {}
    for entry in manifest["files"]:
        data = (out_dir / entry["name"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != entry["sha256"] or len(data) != entry["bytes"]:
            failures.append(f"{entry['name']}: does not match manifest.json")
        digests[entry["name"]] = digest
    stable = {k: v for k, v in manifest.items() if k not in ("started_at", "finished_at")}
    digests["manifest.json"] = hashlib.sha256(
        json.dumps(stable, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return failures, digests
