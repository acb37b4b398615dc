"""Span tracing of fedmesh layers, installed from outside the program.

:class:`Wrappers` replaces the functions the engine calls at each layer
boundary with timing wrappers and returns a handle whose ``remove``
restores the originals, so untraced federations run the program's own,
unwrapped code.  A span records its name, start, end, parent span and
thread, plus the round index it belongs to; spans stay in memory until
the traced pass ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import fedmesh.experiment
import fedmesh.federation
import fedmesh.secure_sum
import fedmesh.transport
from fedmesh.federation import FederationEngine
from fedmesh.secure_sum import FixedPointCodec
from fedmesh.transport import FrameConnection, FrameDecoder, MessageType

# (owner, attribute, span name).  Module functions are patched in the
# namespace the engine looks them up in at call time.
_PAYLOAD_ENCODERS = (
    "encode_hello",
    "encode_global_model",
    "encode_client_update",
    "encode_masked_share",
    "encode_round_summary",
    "encode_notice",
)
_PAYLOAD_DECODERS = (
    "decode_hello",
    "decode_global_model",
    "decode_client_update",
    "decode_masked_share",
    "decode_round_summary",
    "decode_notice",
)
TARGETS = (
    (fedmesh.federation, "gradient", "model.gradient"),
    (fedmesh.federation, "loss", "model.loss"),
    (fedmesh.federation, "local_train", "federation.local_train"),
    (FederationEngine, "complete_round", "federation.complete_round"),
    (fedmesh.federation, "privatize", "privacy.privatize"),
    (FixedPointCodec, "encode", "secure_sum.encode"),
    (fedmesh.federation, "mask", "secure_sum.mask"),
    (fedmesh.secure_sum, "mask_words", "secure_sum.mask_words"),
    (fedmesh.federation, "unmask_sum", "secure_sum.unmask_sum"),
    (fedmesh.federation, "evaluate", "evaluation.evaluate"),
    (fedmesh.experiment, "synthesize", "data.synthesize"),
    (fedmesh.experiment, "partition", "data.partition"),
    (fedmesh.transport, "encode_frame", "transport.encode_frame"),
    (FrameDecoder, "feed", "transport.feed"),
    (FrameConnection, "send", "transport.send"),
    (FrameConnection, "recv", "transport.recv"),
    *((fedmesh.transport, n, f"transport.{n}") for n in _PAYLOAD_ENCODERS),
    *((fedmesh.transport, n, f"transport.{n}") for n in _PAYLOAD_DECODERS),
)

# Frames that belong to a round; HELLO and BYE belong to the run.
ROUND_FRAME_TYPES = frozenset(
    {
        MessageType.GLOBAL_MODEL,
        MessageType.CLIENT_UPDATE,
        MessageType.MASKED_SHARE,
        MessageType.ROUND_REPORT,
        MessageType.ABORT,
    }
)


@dataclass
class Tracer:
    """In-memory span store plus the exact counters taken at boundaries."""

    spans: list = field(default_factory=list)  # (id, parent, name, thread, round, start, end)
    round: int = 0
    frames: dict = field(default_factory=dict)  # msg_type -> [count, bytes]
    masked_inputs: dict = field(default_factory=dict)  # (round, client) -> pre-mask words
    unmasked: list = field(default_factory=list)  # (round, client ids, codec, result)
    received: dict = field(default_factory=dict)  # recv span id -> msg_type of its frame

    def __post_init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self._local.last = span_id
            self.spans.append(
                (span_id, parent, name, threading.current_thread().name, self.round, start, end)
            )

    def reset(self) -> None:
        self.spans.clear()
        self.frames.clear()
        self.masked_inputs.clear()
        self.unmasked.clear()
        self.received.clear()
        self.round = 0

    # boundary observers; they copy what the checks need and do no checking
    def _on_frame(self, args, result) -> None:
        with self._lock:
            counts = self.frames.setdefault(int(args[0].msg_type), [0, 0])
            counts[0] += 1
            counts[1] += len(result)

    def _on_recv(self, args, result) -> None:
        if result is not None:
            with self._lock:
                self.received[self._local.last] = int(result.msg_type)

    def _on_mask(self, args, result) -> None:
        encoded, client_id, round_index = args[0], args[1], args[4]
        with self._lock:
            self.masked_inputs[(int(round_index), int(client_id))] = np.array(encoded, copy=True)

    def _on_unmask(self, args, result) -> None:
        shares, codec = list(args[0]), args[1]
        round_index = shares[0].round_index
        with self._lock:
            self.unmasked.append(
                (round_index, tuple(s.client_id for s in shares), codec, np.array(result))
            )

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "name", "thread", "round", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class Wrappers:
    """Installs every timing wrapper; ``remove`` puts the originals back."""

    def __init__(self, tracer: Tracer):
        self._saved = []
        observers = {
            "transport.encode_frame": tracer._on_frame,
            "secure_sum.mask": tracer._on_mask,
            "secure_sum.unmask_sum": tracer._on_unmask,
            "transport.recv": tracer._on_recv,
        }
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, observers.get(name)))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _wrap(tracer: Tracer, name: str, fn, observer):
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        result = tracer.span(name, fn, *args, **kwargs)
        if observer is not None:
            observer(args, result)
        return result

    return timed


# -- summary -----------------------------------------------------------------

ENCODE_SPANS = {"transport.encode_frame"} | {f"transport.{n}" for n in _PAYLOAD_ENCODERS}
DECODE_SPANS = {"transport.feed"} | {f"transport.{n}" for n in _PAYLOAD_DECODERS}
# Spans outside the round phase: set-up and artifact writing.
RUN_SPANS = {
    "config.load_config",
    "experiment.build_engine",
    "data.synthesize",
    "data.partition",
    "transport.handshake",
    "outputs.write_run_artifacts",
}


def summarize(
    tracer: Tracer,
    rounds: int,
    round_seconds: float,
    round_thread: str,
    client_threads: int,
    round_start: float,
) -> dict[str, float]:
    """Layer figures of one traced federation: per round, or per run for set-up and output.

    Client recv waits count only for frames of a round, and only from
    ``round_start`` on, so the HELLO, first-model and BYE waits of set-up
    and teardown stay out of the per-round figure.
    """
    spans = tracer.spans
    round_frames = [v for k, v in tracer.frames.items() if k in ROUND_FRAME_TYPES]
    child_time: dict[int, float] = {}
    name_of: dict[int, str] = {}
    parent_of: dict[int, int] = {}
    for span_id, parent, name, _, _, start, end in spans:
        name_of[span_id], parent_of[span_id] = name, parent
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def in_run_phase(span_id: int) -> bool:
        while span_id:
            if name_of[span_id] in RUN_SPANS:
                return True
            span_id = parent_of[span_id]
        return False
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    recv_wait = 0.0
    round_thread_self = 0.0
    for span_id, _, name, thread, _, start, end in spans:
        duration = end - start
        own = duration - child_time.get(span_id, 0.0)
        total[name] = total.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + own
        if (
            name == "transport.recv"
            and thread.startswith("bench-client-")
            and tracer.received.get(span_id) in ROUND_FRAME_TYPES
        ):
            recv_wait += max(0.0, end - max(start, round_start) - child_time.get(span_id, 0.0))
        if thread == round_thread and not in_run_phase(span_id):
            round_thread_self += own

    def per_round_ms(names) -> float:
        return 1000.0 * sum(total.get(n, 0.0) for n in names) / rounds

    def per_run_ms(name) -> float:
        return 1000.0 * total.get(name, 0.0)

    return {
        "model.gradient.calls": calls.get("model.gradient", 0) / rounds,
        "model.gradient.ms": per_round_ms(["model.gradient"]),
        "model.loss.calls": calls.get("model.loss", 0) / rounds,
        "model.loss.ms": per_round_ms(["model.loss"]),
        "federation.local_train.ms": 1000.0
        * self_time.get("federation.local_train", 0.0)
        / rounds,
        "federation.complete_round.ms": per_round_ms(["federation.complete_round"]),
        "privacy.privatize.ms": per_round_ms(["privacy.privatize"]),
        "secure_sum.encode.ms": per_round_ms(["secure_sum.encode"]),
        "secure_sum.mask.ms": per_round_ms(["secure_sum.mask"]),
        "secure_sum.mask_words.calls": calls.get("secure_sum.mask_words", 0) / rounds,
        "secure_sum.unmask_sum.ms": per_round_ms(["secure_sum.unmask_sum"]),
        "evaluation.evaluate.ms": per_round_ms(["evaluation.evaluate"]),
        "transport.frames": sum(c for c, _ in round_frames) / rounds,
        "transport.bytes": sum(b for _, b in round_frames) / rounds,
        "transport.encode.ms": per_round_ms(ENCODE_SPANS),
        "transport.decode.ms": per_round_ms(DECODE_SPANS),
        "transport.client_recv_wait.ms": (
            1000.0 * recv_wait / (rounds * client_threads) if client_threads else 0.0
        ),
        "transport.handshake.ms": per_run_ms("transport.handshake"),
        "outputs.write_run_artifacts.ms": per_run_ms("outputs.write_run_artifacts"),
        "config.load_config.ms": per_run_ms("config.load_config"),
        "data.synthesize.ms": per_run_ms("data.synthesize"),
        "data.partition.ms": per_run_ms("data.partition"),
        "experiment.build_engine.ms": per_run_ms("experiment.build_engine"),
        "trace.self_time_pct": 100.0 * round_thread_self / round_seconds,
    }
