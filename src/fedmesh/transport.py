"""Length-prefixed binary wire protocol and the socket server/client.

Frame layout (all multi-byte integers big-endian)::

    magic      4 bytes  b"FDM1"
    msg_type   1 byte   MessageType
    round      4 bytes  unsigned
    client_id  4 bytes  unsigned
    payload_len 4 bytes unsigned, <= 64 MiB
    payload    payload_len bytes

Parameter vectors are serialized as a 4-byte big-endian dimension followed
by that many IEEE-754 binary64 values, big-endian, so a vector survives
the wire bit for bit.

Message payloads:

* HELLO: version u8, config hash 32 bytes, count u32 (client: its sample
  count; server ack: expected client count).
* GLOBAL_MODEL: params, coefficient f64 (this client's aggregation weight,
  meaningful only under secure aggregation), flags u8 (bit0 selected,
  bit1 secure, bit2 retry), participant count u32 + that many u32 ids.
* CLIENT_UPDATE: delta params, then the metadata tail (below).
* MASKED_SHARE: dim u32 + dim u64 masked words, then the metadata tail.
* ROUND_REPORT: global loss f64, accuracy f64 (server -> client notice).
* ABORT: code u8 (1 retry round, 2 fatal), reason length u16 + UTF-8.
* BYE: code u8 (0 normal, 3 config mismatch), reason length u16 + UTF-8.

Metadata tail (shared by CLIENT_UPDATE and MASKED_SHARE): loss_before f64,
loss_after f64, sample_count u32, diverged u8, mechanism u8 (0 none,
1 gaussian), clip_applied u8, sigma f64, pre_clip_norm f64, tracked count
u16 + that many f64 tracked local coordinates.

The server is a single round-state machine (broadcast -> collect ->
aggregate) in its caller's thread; one ``selectors`` loop does all its
reads, so no connection can stall another.  The protocol carries no TLS;
the threat model here is covered by differential privacy plus masking,
not transport encryption.
"""

from __future__ import annotations

import logging
import selectors
import socket
import struct
import time
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .federation import ClientUpdate, FederationAbort, FederationEngine
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
FLAG_RETRY = 0x04

ABORT_RETRY = 1
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


def encode_params(values: np.ndarray) -> bytes:
    """4-byte big-endian dim, then dim big-endian binary64 values."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise FrameError("parameter vector must be 1-D")
    if values.shape[0] >= 2**24:
        raise FrameError("parameter dimension exceeds 2^24")
    if not np.all(np.isfinite(values)):
        raise FrameError("refusing to serialize non-finite parameters")
    return struct.pack(">I", values.shape[0]) + values.astype(">f8").tobytes()


def decode_params(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Inverse of :func:`encode_params`; returns (vector, next offset)."""
    if len(buf) < offset + 4:
        raise FrameError("truncated parameter header")
    (dim,) = struct.unpack_from(">I", buf, offset)
    if dim >= 2**24:
        raise FrameError("parameter dimension exceeds 2^24")
    offset += 4
    end = offset + 8 * dim
    if len(buf) < end:
        raise FrameError("truncated parameter payload")
    values = np.frombuffer(buf[offset:end], dtype=">f8").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise FrameError("non-finite parameters on the wire")
    return values, end


def encode_hello(config_hash: bytes, count: int) -> bytes:
    if len(config_hash) != 32:
        raise FrameError("config hash must be 32 bytes")
    return struct.pack(">B32sI", PROTOCOL_VERSION, config_hash, count)


def decode_hello(buf: bytes) -> tuple[int, bytes, int]:
    if len(buf) != struct.calcsize(">B32sI"):
        raise FrameError("malformed HELLO payload")
    version, config_hash, count = struct.unpack(">B32sI", buf)
    return version, config_hash, count


def encode_global_model(
    params: np.ndarray, coefficient: float, flags: int, participant_ids: list[int]
) -> bytes:
    body = encode_params(params)
    body += struct.pack(">dBI", coefficient, flags, len(participant_ids))
    body += struct.pack(f">{len(participant_ids)}I", *participant_ids)
    return body


def decode_global_model(buf: bytes) -> tuple[np.ndarray, float, int, list[int]]:
    params, offset = decode_params(buf)
    if len(buf) < offset + struct.calcsize(">dBI"):
        raise FrameError("truncated GLOBAL_MODEL payload")
    coefficient, flags, count = struct.unpack_from(">dBI", buf, offset)
    offset += struct.calcsize(">dBI")
    end = offset + 4 * count
    if len(buf) < end:
        raise FrameError("truncated participant list")
    ids = list(struct.unpack_from(f">{count}I", buf, offset))
    return params, coefficient, flags, ids


_META = struct.Struct(">ddIBBBddH")


def _encode_metadata(update: ClientUpdate) -> bytes:
    mech = 1 if update.receipt.mechanism == MECHANISM_GAUSSIAN else 0
    body = _META.pack(
        update.loss_before,
        update.loss_after,
        update.sample_count,
        1 if update.diverged else 0,
        mech,
        1 if update.receipt.clip_applied else 0,
        update.receipt.sigma,
        update.receipt.pre_clip_norm,
        len(update.tracked_values),
    )
    if update.tracked_values:
        body += struct.pack(f">{len(update.tracked_values)}d", *update.tracked_values)
    return body


def _decode_update(frame: Frame, delta: np.ndarray, offset: int) -> ClientUpdate:
    """The update of ``delta`` with the metadata tail at ``offset`` of the payload."""
    buf = frame.payload
    if len(buf) < offset + _META.size:
        raise FrameError("truncated update metadata")
    (
        loss_before,
        loss_after,
        sample_count,
        diverged,
        mech,
        clip_applied,
        sigma,
        pre_clip_norm,
        n_tracked,
    ) = _META.unpack_from(buf, offset)
    offset += _META.size
    if len(buf) < offset + 8 * n_tracked:
        raise FrameError("truncated tracked values")
    try:
        receipt = NoiseReceipt(
            sigma=sigma,
            clip_applied=bool(clip_applied),
            pre_clip_norm=pre_clip_norm,
            mechanism=MECHANISM_GAUSSIAN if mech else MECHANISM_NONE,
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
            tracked_values=struct.unpack_from(f">{n_tracked}d", buf, offset),
        )
    except ValueError as exc:
        raise FrameError(f"invalid update: {exc}") from None


def encode_client_update(update: ClientUpdate) -> bytes:
    delta = update.delta if not update.diverged else np.zeros_like(update.delta)
    return encode_params(delta) + _encode_metadata(update)


def decode_client_update(frame: Frame) -> ClientUpdate:
    delta, offset = decode_params(frame.payload)
    return _decode_update(frame, delta, offset)


def encode_masked_share(share: MaskedShare, update: ClientUpdate) -> bytes:
    words = share.masked_values
    body = struct.pack(">I", words.shape[0]) + words.astype(">u8").tobytes()
    return body + _encode_metadata(update)


def decode_masked_share(frame: Frame) -> tuple[MaskedShare, ClientUpdate]:
    buf = frame.payload
    if len(buf) < 4:
        raise FrameError("truncated MASKED_SHARE payload")
    (dim,) = struct.unpack_from(">I", buf)
    end = 4 + 8 * dim
    if len(buf) < end:
        raise FrameError("truncated masked words")
    words = np.frombuffer(buf[4:end], dtype=">u8").astype(np.uint64)
    share = MaskedShare(
        client_id=frame.client_id, round_index=frame.round_index, masked_values=words
    )
    # The delta placeholder is never aggregated; masked rounds sum the shares.
    return share, _decode_update(frame, np.zeros(dim, dtype=np.float64), end)


def encode_round_summary(global_loss: float, accuracy: float) -> bytes:
    return struct.pack(">dd", global_loss, accuracy)


def decode_round_summary(buf: bytes) -> tuple[float, float]:
    if len(buf) != 16:
        raise FrameError("malformed ROUND_REPORT payload")
    return struct.unpack(">dd", buf)


def encode_notice(code: int, reason: str) -> bytes:
    data = reason.encode("utf-8")[:65535]
    return struct.pack(">BH", code, len(data)) + data


def decode_notice(buf: bytes) -> tuple[int, str]:
    if len(buf) < 3:
        raise FrameError("malformed notice payload")
    code, length = struct.unpack_from(">BH", buf)
    if len(buf) < 3 + length:
        raise FrameError("truncated notice reason")
    return code, buf[3 : 3 + length].decode("utf-8", errors="replace")


# -- socket helpers ----------------------------------------------------------


class FrameConnection:
    """A socket plus its streaming decoder and a pending-frame queue."""

    def __init__(self, sock: socket.socket):
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
        self._listener = socket.create_server((host, port))
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

    def _collect(self, round_index: int, participant_ids: list[int], secure: bool):
        wanted = set(participant_ids)
        updates: dict[int, ClientUpdate] = {}
        shares: dict[int, MaskedShare | None] = {}
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
                        share, update = decode_masked_share(frame)
                    elif not secure and frame.msg_type == MessageType.CLIENT_UPDATE:
                        share, update = None, decode_client_update(frame)
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
                updates[cid], shares[cid] = update, share
        ordered = sorted(updates)
        return (
            [updates[cid] for cid in ordered],
            [shares[cid] for cid in ordered] if secure else None,
        )

    def run(self) -> None:
        """Drive all rounds; raises TransportError / FederationAbort on failure."""
        secure = self.engine.secure_aggregation
        for _ in range(self.engine.schedule.rounds):
            inputs = self.engine.begin_round(self.engine.round_index)
            t, pids = inputs.round_index, inputs.participant_ids
            failure: Exception | None = None
            for attempt in (1, 2):
                flags_base = (FLAG_SECURE if secure else 0) | (FLAG_RETRY if attempt == 2 else 0)

                def model_frame(cid: int) -> Frame:
                    selected = cid in pids
                    flags = flags_base | (FLAG_SELECTED if selected else 0)
                    coeff = inputs.coefficients[cid] if (secure and selected) else 0.0
                    return Frame(
                        MessageType.GLOBAL_MODEL,
                        t,
                        cid,
                        encode_global_model(self.engine.params, coeff, flags, pids),
                    )

                self._broadcast(model_frame)
                try:
                    inputs.updates, inputs.shares = self._collect(t, pids, secure)
                    report = self.engine.complete_round(inputs)
                    failure = None
                    break
                except FederationAbort as exc:
                    failure = exc
                    log.warning("round %d attempt %d aborted: %s", t, attempt, exc)
                    if attempt == 1:
                        self._notify(MessageType.ABORT, t, ABORT_RETRY, str(exc))
            if failure is not None:
                self._notify(MessageType.ABORT, t, ABORT_FATAL, str(failure))
                raise TransportError(f"round {t} failed twice: {failure}", exit_code=2)
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
                code, reason = decode_notice(frame.payload)
                if code == ABORT_FATAL:
                    raise TransportError(f"server aborted: {reason}", exit_code=2)
                log.warning("round %d aborted (%s); awaiting retry", frame.round_index, reason)
                continue
            if frame.msg_type == MessageType.ROUND_REPORT:
                global_loss, accuracy = decode_round_summary(frame.payload)
                log.debug(
                    "round %d summary: loss=%.6f acc=%.4f", frame.round_index, global_loss, accuracy
                )
                continue
            if frame.msg_type != MessageType.GLOBAL_MODEL:
                log.warning("ignoring unexpected frame type %d", frame.msg_type)
                continue
            params, coefficient, flags, participant_ids = decode_global_model(frame.payload)
            t = frame.round_index
            if params.shape != self.engine.params.shape:
                raise TransportError(
                    f"round {t}: global model has dim {params.shape[0]}, "
                    f"expected {self.engine.params.shape[0]}"
                )
            if not flags & FLAG_SELECTED:
                continue
            unknown = sorted(set(participant_ids) - self.engine.clients.keys())
            if unknown:
                raise TransportError(f"round {t}: unknown participant ids {unknown}")
            if participant_ids != sorted(set(participant_ids)) or self.client_id not in participant_ids:
                raise TransportError(
                    f"round {t}: participant list is not strictly increasing "
                    f"or leaves out client {self.client_id}"
                )
            self.engine.params = params
            self.engine.round_index = t
            update = self.engine.run_local(self.client_id, t)
            if flags & FLAG_SECURE:
                share = self.engine.masked_share_for(update, coefficient, participant_ids)
                msg_type, payload = MessageType.MASKED_SHARE, encode_masked_share(share, update)
            else:
                msg_type, payload = MessageType.CLIENT_UPDATE, encode_client_update(update)
            conn.send(Frame(msg_type, t, self.client_id, payload))
