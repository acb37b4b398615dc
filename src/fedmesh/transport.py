"""Length-prefixed binary wire protocol and the socket server/client.

Frame layout (all multi-byte integers big-endian)::

    magic      4 bytes  b"FDM1"
    msg_type   1 byte   MessageType
    round      4 bytes  unsigned
    client_id  4 bytes  unsigned
    payload_len 4 bytes unsigned, <= 64 MiB
    payload    payload_len bytes

``LAYOUTS`` gives each payload in wire order: fixed big-endian ``struct``
fields, and counted arrays (a u32 or u16 count, then that many big-endian
elements).  A payload must fill its frame exactly; a short one and one
with trailing bytes are both refused.  Floats are IEEE-754 binary64, so
a parameter vector survives the wire bit for bit.  What the fields mean:

* HELLO: version, config hash, count (client: its sample count; server
  ack: expected client count).
* GLOBAL_MODEL: params, then the header of :func:`global_model_header`:
  coefficient (this client's aggregation weight, meaningful only under
  secure aggregation), flags (bit0 selected, bit1 secure, bit2 unused),
  participant ids.  A client refuses a header it does not derive itself.
* CLIENT_UPDATE and MASKED_SHARE: the delta params or the masked words,
  then loss_before, loss_after, sample_count, diverged, mechanism (0 none,
  1 gaussian), clip_applied, sigma, pre_clip_norm, tracked local values.
  Either decodes to one ``ClientUpdate``; a MASKED_SHARE's carries its
  share and a zero delta, as the masking client's own update does.
* ROUND_REPORT: global loss, accuracy (server -> client notice).
* ABORT (code 2: the run ends) and BYE (0 normal, 3 config mismatch):
  code, UTF-8 reason.

The server is a single round-state machine (broadcast -> collect ->
aggregate, once per round, as ``simulate`` runs it) in its caller's
thread; one ``selectors`` loop does all its reads, so no connection can
stall another.  Both ends set ``TCP_NODELAY`` on their TCP sockets and
send each frame with one ``sendall``.  Without it, Nagle's algorithm
holds a round's GLOBAL_MODEL behind the unacknowledged ROUND_REPORT sent
just before it until the peer's delayed ACK fires: a ~40 ms stall on
every round.  The protocol carries no TLS; the threat model here is
covered by differential privacy plus masking, not transport encryption.
"""

from __future__ import annotations

import logging
import selectors
import socket
import struct
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .federation import ClientUpdate, FederationAbort, FederationEngine, RoundInputs
from .privacy import MECHANISM_GAUSSIAN, MECHANISM_NONE, NoiseReceipt
from .secure_sum import MaskedShare

log = logging.getLogger(__name__)

MAGIC = b"FDM1"
HEADER = struct.Struct(">4sBIII")
MAX_PAYLOAD = 64 * 1024 * 1024
PROTOCOL_VERSION = 1
DEFAULT_PORT = 7700

FLAG_SELECTED = 0x01
FLAG_SECURE = 0x02

ABORT_FATAL = 2

BYE_NORMAL = 0
BYE_CONFIG_MISMATCH = 3


class MessageType(IntEnum):
    HELLO = 1
    GLOBAL_MODEL = 2
    CLIENT_UPDATE = 3
    MASKED_SHARE = 4
    ROUND_REPORT = 5
    ABORT = 6
    BYE = 7


class FrameError(Exception):
    """Malformed frame or payload; the connection should be closed."""


class OversizeFrameError(FrameError):
    """A frame declared a payload beyond the limit; peer gets an ABORT."""


@dataclass(frozen=True)
class Frame:
    msg_type: int
    round_index: int
    client_id: int
    payload: bytes


# -- frame encoding ---------------------------------------------------------


def encode_frame(frame: Frame) -> bytes:
    if frame.msg_type not in MessageType._value2member_map_:
        raise FrameError(f"unknown message type {frame.msg_type}")
    if len(frame.payload) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(frame.payload)} bytes exceeds {MAX_PAYLOAD}")
    return (
        HEADER.pack(MAGIC, frame.msg_type, frame.round_index, frame.client_id, len(frame.payload))
        + frame.payload
    )


class FrameDecoder:
    """Streaming reassembler: feed arbitrary chunks, get complete frames.

    Raises :class:`FrameError` on a bad magic, unknown type, or oversize
    declaration; never anything else, whatever the input bytes.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < HEADER.size:
                return frames
            magic, msg_type, round_index, client_id, length = HEADER.unpack_from(self._buffer)
            if magic != MAGIC:
                raise FrameError(f"bad magic {magic!r}")
            if msg_type not in MessageType._value2member_map_:
                raise FrameError(f"unknown message type {msg_type}")
            if length > MAX_PAYLOAD:
                raise OversizeFrameError(
                    f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}"
                )
            if len(self._buffer) < HEADER.size + length:
                return frames
            payload = bytes(self._buffer[HEADER.size : HEADER.size + length])
            del self._buffer[: HEADER.size + length]
            frames.append(Frame(msg_type, round_index, client_id, payload))


# -- payload codecs ---------------------------------------------------------


class _Part(NamedTuple):
    """Fixed fields (``dtype`` None), or an element count and then that many ``dtype``."""

    head: struct.Struct
    dtype: np.dtype | None


def _part(head: str, dtype: str | None = None) -> _Part:
    return _Part(struct.Struct(">" + head), None if dtype is None else np.dtype(dtype))


_PARAMS = _part("I", ">f8")
_UPDATE_TAIL = (_part("ddIBBBdd"), _part("H", ">f8"))
_NOTICE = (_part("B"), _part("H", "u1"))

# Each payload's parts in wire order; _pack and _unpack read nothing else.
LAYOUTS = {
    MessageType.HELLO: (_part("B32sI"),),
    MessageType.GLOBAL_MODEL: (_PARAMS, _part("dB"), _part("I", ">u4")),
    MessageType.CLIENT_UPDATE: (_PARAMS, *_UPDATE_TAIL),
    MessageType.MASKED_SHARE: (_part("I", ">u8"), *_UPDATE_TAIL),
    MessageType.ROUND_REPORT: (_part("dd"),),
    MessageType.ABORT: _NOTICE,
    MessageType.BYE: _NOTICE,
}


def _pack(layout: tuple[_Part, ...], parts) -> bytes:
    """A tuple of values per fixed part and a sequence per array, in layout order."""
    chunks = []
    try:
        for (head, dtype), value in zip(layout, parts, strict=True):
            if dtype is None:
                chunks.append(head.pack(*value))
                continue
            wire = np.asarray(value, dtype=dtype)
            if dtype.kind == "u" and not np.array_equal(wire, value):
                raise FrameError(f"array elements outside {dtype.name}")
            chunks += [head.pack(len(wire)), wire.tobytes()]
    except (struct.error, OverflowError, ValueError) as exc:
        raise FrameError(f"unencodable payload: {exc}") from None
    return b"".join(chunks)


def _unpack(layout: tuple[_Part, ...], buf: bytes) -> list:
    """Inverse of :func:`_pack`, arrays native-endian; ``buf`` must fill the layout exactly."""
    parts, offset = [], 0
    for head, dtype in layout:
        end = offset + head.size
        if len(buf) >= end:
            fields = head.unpack_from(buf, offset)
            if dtype is not None:
                offset, end = end, end + fields[0] * dtype.itemsize
        if len(buf) < end:
            raise FrameError(f"truncated payload: {len(buf)} bytes, needs at least {end}")
        if dtype is not None:
            fields = np.frombuffer(buf, dtype, fields[0], offset).astype(dtype.type)
        parts.append(fields)
        offset = end
    if offset != len(buf):
        raise FrameError(f"{len(buf) - offset} trailing bytes after the payload")
    return parts


def _checked_params(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise FrameError("parameter vector must be 1-D")
    if values.shape[0] >= 2**24:
        raise FrameError("parameter dimension exceeds 2^24")
    if not np.isfinite(values).all():
        raise FrameError("non-finite parameters")
    return values


def encode_hello(config_hash: bytes, count: int) -> bytes:
    if len(config_hash) != 32:
        raise FrameError("config hash must be 32 bytes")
    return _pack(LAYOUTS[MessageType.HELLO], ((PROTOCOL_VERSION, config_hash, count),))


def decode_hello(buf: bytes) -> tuple[int, bytes, int]:
    return _unpack(LAYOUTS[MessageType.HELLO], buf)[0]


def encode_global_model(
    params: np.ndarray, coefficient: float, flags: int, participant_ids: list[int]
) -> bytes:
    parts = (_checked_params(params), (coefficient, flags), participant_ids)
    return _pack(LAYOUTS[MessageType.GLOBAL_MODEL], parts)


def decode_global_model(buf: bytes) -> tuple[np.ndarray, float, int, list[int]]:
    params, (coefficient, flags), ids = _unpack(LAYOUTS[MessageType.GLOBAL_MODEL], buf)
    return _checked_params(params), coefficient, flags, ids.tolist()


def _update_tail(update: ClientUpdate) -> tuple:
    receipt = update.receipt
    fields = (
        update.loss_before,
        update.loss_after,
        update.sample_count,
        bool(update.diverged),
        receipt.mechanism == MECHANISM_GAUSSIAN,
        bool(receipt.clip_applied),
        receipt.sigma,
        receipt.pre_clip_norm,
    )
    return fields, update.tracked_values


def _decode_update(
    frame: Frame, delta: np.ndarray, fields: tuple, tracked, share: MaskedShare | None = None
) -> ClientUpdate:
    loss_before, loss_after, sample_count, diverged, gaussian, clipped, sigma, norm = fields
    mechanism = MECHANISM_GAUSSIAN if gaussian else MECHANISM_NONE
    try:
        receipt = NoiseReceipt(
            sigma=sigma, clip_applied=bool(clipped), pre_clip_norm=norm, mechanism=mechanism
        )
        return ClientUpdate(
            client_id=frame.client_id,
            round_index=frame.round_index,
            delta=delta,
            sample_count=sample_count,
            loss_before=loss_before,
            loss_after=loss_after,
            receipt=receipt,
            diverged=bool(diverged),
            tracked_values=tuple(tracked.tolist()),
            share=share,
        )
    except ValueError as exc:
        raise FrameError(f"invalid update: {exc}") from None


def encode_client_update(update: ClientUpdate) -> bytes:
    delta = update.delta if not update.diverged else np.zeros_like(update.delta)
    parts = (_checked_params(delta), *_update_tail(update))
    return _pack(LAYOUTS[MessageType.CLIENT_UPDATE], parts)


def decode_client_update(frame: Frame) -> ClientUpdate:
    delta, *tail = _unpack(LAYOUTS[MessageType.CLIENT_UPDATE], frame.payload)
    return _decode_update(frame, _checked_params(delta), *tail)


def encode_masked_share(update: ClientUpdate) -> bytes:
    parts = (update.share.masked_values, *_update_tail(update))
    return _pack(LAYOUTS[MessageType.MASKED_SHARE], parts)


def decode_masked_share(frame: Frame) -> ClientUpdate:
    words, *tail = _unpack(LAYOUTS[MessageType.MASKED_SHARE], frame.payload)
    share = MaskedShare(
        client_id=frame.client_id, round_index=frame.round_index, masked_values=words
    )
    return _decode_update(frame, np.zeros(len(words)), *tail, share=share)


def encode_round_summary(global_loss: float, accuracy: float) -> bytes:
    return _pack(LAYOUTS[MessageType.ROUND_REPORT], ((global_loss, accuracy),))


def decode_round_summary(buf: bytes) -> tuple[float, float]:
    return _unpack(LAYOUTS[MessageType.ROUND_REPORT], buf)[0]


def encode_notice(code: int, reason: str) -> bytes:
    data = reason.encode("utf-8")[:65535]
    return _pack(_NOTICE, ((code,), np.frombuffer(data, dtype=np.uint8)))


def decode_notice(buf: bytes) -> tuple[int, str]:
    (code,), reason = _unpack(_NOTICE, buf)
    return code, reason.tobytes().decode("utf-8", errors="replace")


# -- socket helpers ----------------------------------------------------------


class FrameConnection:
    """A TCP socket plus its streaming decoder and a pending-frame queue.

    ``sock`` must be a TCP socket.  It gets ``TCP_NODELAY``, and
    :meth:`send` writes each frame with one ``sendall``, so a frame leaves
    at once instead of waiting ~40 ms for the ACK of the frame before it
    (Nagle's algorithm against the peer's delayed ACK).
    """

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._decoder = FrameDecoder()
        self._pending: list[Frame] = []

    def send(self, frame: Frame) -> None:
        self.sock.sendall(encode_frame(frame))

    def read(self) -> list[Frame] | None:
        """One ``recv``: the frames it completed (maybe none), or None on EOF."""
        chunk = self.sock.recv(65536)
        if not chunk:
            return None
        return self._decoder.feed(chunk)

    def recv(self) -> Frame | None:
        """Block until the next frame arrives; None on EOF."""
        while not self._pending:
            frames = self.read()
            if frames is None:
                return None
            self._pending.extend(frames)
        return self._pending.pop(0)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


# -- server ------------------------------------------------------------------


def global_model_header(
    engine: FederationEngine, inputs: RoundInputs, client_id: int
) -> tuple[float, int, list[int]]:
    """(coefficient, flags, participant ids) of a client's GLOBAL_MODEL; both ends derive it."""
    secure = engine.secure_aggregation
    selected = client_id in inputs.participant_ids
    coefficient = inputs.coefficients[client_id] if secure and selected else 0.0
    flags = (FLAG_SECURE if secure else 0) | (FLAG_SELECTED if selected else 0)
    return coefficient, flags, inputs.participant_ids


class TransportError(Exception):
    """Fatal transport-level failure (handshake, timeout, lost client)."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


class FederationServer:
    """Round-state machine over TCP: IDLE -> BROADCAST -> COLLECT -> AGGREGATE.

    One selector holds the listener, connections that have not sent HELLO
    yet (data ``(conn, None)``) and registered clients (``(conn, id)``).
    """

    def __init__(
        self,
        engine: FederationEngine,
        config_hash: bytes,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 30.0,
    ):
        self.engine = engine
        self.config_hash = config_hash
        self.timeout = timeout
        # Only an IPv6 literal holds a colon; every other host binds as IPv4.
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, port), family=family)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._clients: dict[int, FrameConnection] = {}
        self._dropped: dict[int, str] = {}  # client id -> why it was dropped

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        for key in list(self._selector.get_map().values()):
            if key.data is not None:
                key.data[0].close()
        self._selector.close()
        self._listener.close()

    # event loop -----------------------------------------------------------

    def _poll(self, deadline: float) -> list[tuple[int, Frame]]:
        """Wait until a socket is ready or ``deadline``, then serve every ready one.

        Accepts connections, registers clients whose HELLO passes, and
        returns the frames registered clients sent.  A connection that
        closes, fails or sends a malformed frame is dropped.
        """
        received = []
        for key, _ in self._selector.select(deadline - time.monotonic()):
            if key.data is None:
                try:
                    sock, _ = self._listener.accept()
                except OSError:  # the peer gave up before we got to it
                    continue
                sock.settimeout(self.timeout)
                self._selector.register(sock, selectors.EVENT_READ, (FrameConnection(sock), None))
                continue
            conn, cid = key.data
            try:
                frames = conn.read()
                if frames is None:
                    self._drop(conn, cid, "connection closed")
                    continue
                for frame in frames:
                    if cid is None:
                        cid = self._handshake(conn, frame)
                    else:
                        received.append((cid, frame))
            except OversizeFrameError as exc:
                try:
                    conn.send(
                        Frame(MessageType.ABORT, 0, cid or 0, encode_notice(ABORT_FATAL, str(exc)))
                    )
                except OSError:
                    pass
                self._drop(conn, cid, exc)
            except (OSError, FrameError) as exc:
                self._drop(conn, cid, exc)
        return received

    def _drop(self, conn: FrameConnection, cid: int | None, reason: object) -> None:
        log.warning("dropping %s: %s", "connection" if cid is None else f"client {cid}", reason)
        self._selector.unregister(conn.sock)
        conn.close()
        if self._clients.pop(cid, None) is not None:
            self._dropped[cid] = str(reason)

    # handshake ----------------------------------------------------------

    def wait_for_clients(self) -> None:
        """Accept HELLOs until every expected client id has registered.

        The ``timeout`` deadline restarts with each registration.  Once all
        clients are in, the listener stops and connections that never sent
        HELLO are closed.
        """
        expected = set(self.engine.clients)
        deadline = time.monotonic() + self.timeout
        while set(self._clients) != expected:
            missing = sorted(expected - set(self._clients))
            if time.monotonic() >= deadline:
                raise TransportError(f"timed out waiting for clients; missing {missing}")
            registered = len(self._clients)
            for cid, frame in self._poll(deadline):
                log.warning("dropping frame type %d from client %d", frame.msg_type, cid)
            if len(self._clients) > registered:
                deadline = time.monotonic() + self.timeout
        self._selector.unregister(self._listener)
        for key in list(self._selector.get_map().values()):
            conn, cid = key.data
            if cid is None:
                self._drop(conn, cid, "no HELLO before every client registered")

    def _handshake(self, conn: FrameConnection, frame: Frame) -> int:
        """Register the client whose first frame is ``frame``; returns its id.

        A refused HELLO gets a BYE and raises :class:`FrameError`, except a
        config hash mismatch, which stops the server with exit code 3.
        """
        if frame.msg_type != MessageType.HELLO:
            raise FrameError("expected HELLO")
        version, client_hash, sample_count = decode_hello(frame.payload)
        cid = frame.client_id

        def refuse(code: int, reason: str, fatal: bool = False) -> None:
            conn.send(Frame(MessageType.BYE, 0, 0, encode_notice(code, reason)))
            message = f"client {cid}: {reason}"
            raise TransportError(message, exit_code=code) if fatal else FrameError(message)

        if version != PROTOCOL_VERSION:
            refuse(BYE_NORMAL, "protocol version mismatch")
        if client_hash != self.config_hash:
            # Mismatched configs cannot reconcile; both sides stop with code 3.
            refuse(BYE_CONFIG_MISMATCH, "config hash mismatch", fatal=True)
        if cid not in self.engine.clients:
            refuse(BYE_NORMAL, "unknown client id")
        if cid in self._clients:
            refuse(BYE_NORMAL, "client id already connected")
        if sample_count != len(self.engine.clients[cid].data):
            refuse(BYE_CONFIG_MISMATCH, "sample count mismatch")
        conn.send(
            Frame(
                MessageType.HELLO,
                0,
                cid,
                encode_hello(self.config_hash, len(self.engine.clients)),
            )
        )
        self._selector.modify(conn.sock, selectors.EVENT_READ, (conn, cid))
        self._clients[cid] = conn
        log.info("client %d registered", cid)
        return cid

    # rounds ---------------------------------------------------------------

    def _broadcast(self, frame_for) -> None:
        for cid in sorted(self._clients):
            conn = self._clients[cid]
            try:
                conn.send(frame_for(cid))
            except OSError as exc:
                self._drop(conn, cid, exc)

    def _notify(self, msg_type: int, round_index: int, code: int, reason: str) -> None:
        notice = encode_notice(code, reason)
        self._broadcast(lambda cid: Frame(msg_type, round_index, cid, notice))

    def _model_frame(self, inputs: RoundInputs, cid: int) -> Frame:
        header = global_model_header(self.engine, inputs, cid)
        payload = encode_global_model(self.engine.params, *header)
        return Frame(MessageType.GLOBAL_MODEL, inputs.round_index, cid, payload)

    def _collect(self, inputs: RoundInputs) -> list[ClientUpdate]:
        round_index, secure = inputs.round_index, self.engine.secure_aggregation
        wanted = set(inputs.participant_ids)
        updates: dict[int, ClientUpdate] = {}
        end = time.monotonic() + self.timeout
        while set(updates) != wanted:
            lost = sorted(wanted - set(updates) - set(self._clients))
            if lost:
                raise FederationAbort(f"client {lost[0]} dropped: {self._dropped[lost[0]]}")
            if time.monotonic() >= end:
                missing = sorted(wanted - set(updates))
                raise FederationAbort(f"timed out waiting for clients {missing}")
            for cid, frame in self._poll(end):
                if frame.round_index != round_index or cid not in wanted:
                    log.warning("dropping stray frame from %d (round %d)", cid, frame.round_index)
                    continue
                try:
                    if secure and frame.msg_type == MessageType.MASKED_SHARE:
                        update = decode_masked_share(frame)
                    elif not secure and frame.msg_type == MessageType.CLIENT_UPDATE:
                        update = decode_client_update(frame)
                    else:
                        log.warning("dropping frame type %d from client %d", frame.msg_type, cid)
                        continue
                    # A flagged update carries no tracked values.
                    tracked = 0 if update.diverged else len(self.engine.tracked_indices)
                    fit = (len(self.engine.params), tracked, len(self.engine.clients[cid].data))
                    got = (len(update.delta), len(update.tracked_values), update.sample_count)
                    if got != fit:
                        raise FrameError(f"(dim, tracked, samples) {got} != {fit}")
                except FrameError as exc:
                    if cid in self._clients:
                        self._drop(self._clients[cid], cid, f"malformed update: {exc}")
                    continue
                updates[cid] = update
        return [updates[cid] for cid in sorted(updates)]

    def run(self) -> None:
        """Run each round once; a failed round ends the run with ABORT and TransportError."""
        engine = self.engine
        for _ in range(engine.schedule.rounds):
            t = engine.round_index
            try:
                inputs = engine.begin_round(t)
                self._broadcast(lambda cid: self._model_frame(inputs, cid))
                inputs.updates = self._collect(inputs)
                report = engine.complete_round(inputs)
            except FederationAbort as exc:
                log.warning("round %d aborted: %s", t, exc)
                self._notify(MessageType.ABORT, t, ABORT_FATAL, str(exc))
                raise TransportError(f"round {t} failed: {exc}") from None
            summary = encode_round_summary(report.global_loss, report.global_metrics.accuracy)
            self._broadcast(lambda cid: Frame(MessageType.ROUND_REPORT, t, cid, summary))
        self._notify(MessageType.BYE, 0, BYE_NORMAL, "run complete")


# -- client ------------------------------------------------------------------


class FederationClient:
    """One client process: handshake, then train on demand until BYE."""

    def __init__(
        self,
        engine: FederationEngine,
        client_id: int,
        config_hash: bytes,
        server_addr: tuple[str, int],
        timeout: float = 30.0,
    ):
        if client_id not in engine.clients:
            raise ValueError(f"client id {client_id} is not part of the configured federation")
        self.engine = engine
        self.client_id = client_id
        self.config_hash = config_hash
        self.server_addr = server_addr
        self.timeout = timeout
        if engine.secure_aggregation:  # derive the pair seeds in set-up, not in round 0
            engine.seed_matrix

    def run(self) -> None:
        sock = socket.create_connection(self.server_addr, timeout=self.timeout)
        conn = FrameConnection(sock)
        try:
            self._run(conn)
        except FrameError as exc:
            raise TransportError(f"protocol error: {exc}") from exc
        except socket.timeout as exc:
            raise TransportError(
                f"no frame from the server within {conn.sock.gettimeout():g} s"
            ) from exc
        finally:
            conn.close()

    def _run(self, conn: FrameConnection) -> None:
        sample_count = len(self.engine.clients[self.client_id].data)
        conn.send(
            Frame(
                MessageType.HELLO,
                0,
                self.client_id,
                encode_hello(self.config_hash, sample_count),
            )
        )
        ack = conn.recv()
        if ack is None:
            raise TransportError("server closed the connection during handshake")
        if ack.msg_type == MessageType.BYE:
            code, reason = decode_notice(ack.payload)
            raise TransportError(f"server refused: {reason}", exit_code=code or 2)
        if ack.msg_type != MessageType.HELLO:
            raise TransportError("expected HELLO ack")
        version, server_hash, _expected = decode_hello(ack.payload)
        if version != PROTOCOL_VERSION or server_hash != self.config_hash:
            raise TransportError("config hash mismatch", exit_code=BYE_CONFIG_MISMATCH)
        # The server may wait up to its timeout for each other client to
        # register, and up to its timeout collecting a round, before its next
        # frame or ABORT; a silent server outlasts that.
        conn.sock.settimeout(self.timeout * (len(self.engine.clients) + 1))
        while True:
            frame = conn.recv()
            if frame is None:
                raise TransportError("server connection lost")
            if frame.msg_type == MessageType.BYE:
                code, reason = decode_notice(frame.payload)
                if code == BYE_NORMAL:
                    log.info("server said bye: %s", reason)
                    return
                raise TransportError(f"server terminated: {reason}", exit_code=code)
            if frame.msg_type == MessageType.ABORT:
                raise TransportError(f"server aborted: {decode_notice(frame.payload)[1]}")
            if frame.msg_type == MessageType.ROUND_REPORT:
                global_loss, accuracy = decode_round_summary(frame.payload)
                log.debug(
                    "round %d summary: loss=%.6f acc=%.4f", frame.round_index, global_loss, accuracy
                )
                continue
            if frame.msg_type != MessageType.GLOBAL_MODEL:
                log.warning("ignoring unexpected frame type %d", frame.msg_type)
                continue
            params, *header = decode_global_model(frame.payload)
            t = frame.round_index
            if params.shape != self.engine.params.shape:
                raise TransportError(
                    f"round {t}: global model has dim {params.shape[0]}, "
                    f"expected {self.engine.params.shape[0]}"
                )
            inputs = self.engine.begin_round(t)
            own = global_model_header(self.engine, inputs, self.client_id)
            if tuple(header) != own:
                raise TransportError(
                    f"round {t}: GLOBAL_MODEL (coefficient, flags, participants) "
                    f"{tuple(header)} differs from this config's {own}"
                )
            if self.client_id not in inputs.participant_ids:
                continue
            self.engine.params = params
            update = self.engine.run_local(self.client_id, inputs)
            if self.engine.secure_aggregation:
                msg_type, payload = MessageType.MASKED_SHARE, encode_masked_share(update)
            else:
                msg_type, payload = MessageType.CLIENT_UPDATE, encode_client_update(update)
            conn.send(Frame(msg_type, t, self.client_id, payload))
