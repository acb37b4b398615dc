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
aggregate); each client connection gets its own reader thread and the
collect barrier is the only synchronization point.  The protocol carries
no TLS; the threat model here is covered by differential privacy plus
masking, not transport encryption.
"""

from __future__ import annotations

import logging
import queue
import socket
import struct
import threading
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


def _decode_metadata(buf: bytes, offset: int):
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
    end = offset + 8 * n_tracked
    if len(buf) < end:
        raise FrameError("truncated tracked values")
    tracked = struct.unpack_from(f">{n_tracked}d", buf, offset) if n_tracked else ()
    receipt = NoiseReceipt(
        sigma=sigma,
        clip_applied=bool(clip_applied),
        pre_clip_norm=pre_clip_norm,
        mechanism=MECHANISM_GAUSSIAN if mech else MECHANISM_NONE,
    )
    return loss_before, loss_after, sample_count, bool(diverged), receipt, tuple(tracked), end


def encode_client_update(update: ClientUpdate) -> bytes:
    delta = update.delta if not update.diverged else np.zeros_like(update.delta)
    return encode_params(delta) + _encode_metadata(update)


def decode_client_update(frame: Frame) -> ClientUpdate:
    delta, offset = decode_params(frame.payload)
    loss_before, loss_after, sample_count, diverged, receipt, tracked, _ = _decode_metadata(
        frame.payload, offset
    )
    return ClientUpdate(
        client_id=frame.client_id,
        round_index=frame.round_index,
        delta=delta,
        sample_count=sample_count,
        loss_before=loss_before,
        loss_after=loss_after,
        receipt=receipt,
        diverged=diverged,
        tracked_values=tracked,
    )


def encode_masked_share(share: MaskedShare, update: ClientUpdate) -> bytes:
    words = share.masked_values
    body = struct.pack(">I", words.shape[0]) + words.astype(">u8").tobytes()
    return body + _encode_metadata(update)


def decode_masked_share(frame: Frame) -> tuple[MaskedShare, ClientUpdate]:
    buf = frame.payload
    if len(buf) < 4:
        raise FrameError("truncated MASKED_SHARE payload")
    (dim,) = struct.unpack_from(">I", buf)
    offset = 4
    end = offset + 8 * dim
    if len(buf) < end:
        raise FrameError("truncated masked words")
    words = np.frombuffer(buf[offset:end], dtype=">u8").astype(np.uint64)
    loss_before, loss_after, sample_count, diverged, receipt, tracked, _ = _decode_metadata(
        buf, end
    )
    share = MaskedShare(
        client_id=frame.client_id, round_index=frame.round_index, masked_values=words
    )
    # The delta placeholder is never aggregated; masked rounds sum the shares.
    update = ClientUpdate(
        client_id=frame.client_id,
        round_index=frame.round_index,
        delta=np.zeros(int(dim), dtype=np.float64),
        sample_count=sample_count,
        loss_before=loss_before,
        loss_after=loss_after,
        receipt=receipt,
        diverged=diverged,
        tracked_values=tracked,
    )
    return share, update


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


# -- blocking socket helpers -------------------------------------------------


class FrameConnection:
    """A socket plus its streaming decoder and a pending-frame queue."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._decoder = FrameDecoder()
        self._pending: list[Frame] = []

    def send(self, frame: Frame) -> None:
        self.sock.sendall(encode_frame(frame))

    def recv(self) -> Frame | None:
        while not self._pending:
            chunk = self.sock.recv(65536)
            if not chunk:
                return None
            self._pending.extend(self._decoder.feed(chunk))
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


@dataclass
class _Registered:
    client_id: int
    conn: FrameConnection
    alive: bool = True


class FederationServer:
    """Round-state machine over TCP: IDLE -> BROADCAST -> COLLECT -> AGGREGATE."""

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
        self._clients: dict[int, _Registered] = {}
        self._inbox: "queue.Queue[tuple[int, Frame | None]]" = queue.Queue()

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def close(self) -> None:
        for reg in self._clients.values():
            reg.conn.close()
        self._listener.close()

    # handshake ----------------------------------------------------------

    def wait_for_clients(self) -> None:
        """Accept HELLOs until every expected client id has registered."""
        expected = set(self.engine.clients)
        self._listener.settimeout(self.timeout)
        while set(self._clients) != expected:
            try:
                sock, addr = self._listener.accept()
            except socket.timeout:
                raise TransportError(
                    f"timed out waiting for clients; missing {sorted(expected - set(self._clients))}"
                ) from None
            sock.settimeout(self.timeout)
            conn = FrameConnection(sock)
            try:
                self._handshake(conn, expected)
            except FrameError as exc:
                log.warning("rejecting connection from %s: %s", addr, exc)
                conn.close()
        for reg in self._clients.values():
            reg.conn.sock.settimeout(None)
            thread = threading.Thread(
                target=self._reader, args=(reg,), name=f"reader-{reg.client_id}", daemon=True
            )
            thread.start()

    def _handshake(self, conn: FrameConnection, expected: set[int]) -> None:
        frame = conn.recv()
        if frame is None or frame.msg_type != MessageType.HELLO:
            raise FrameError("expected HELLO")
        version, client_hash, sample_count = decode_hello(frame.payload)
        cid = frame.client_id
        if version != PROTOCOL_VERSION:
            conn.send(
                Frame(MessageType.BYE, 0, 0, encode_notice(BYE_NORMAL, "protocol version mismatch"))
            )
            raise FrameError(f"client {cid}: protocol version {version}")
        if client_hash != self.config_hash:
            conn.send(
                Frame(
                    MessageType.BYE, 0, 0, encode_notice(BYE_CONFIG_MISMATCH, "config hash mismatch")
                )
            )
            conn.close()
            # Mismatched configs cannot reconcile; both sides stop with code 3.
            raise TransportError(
                f"client {cid} presented a different config hash",
                exit_code=BYE_CONFIG_MISMATCH,
            )
        if cid not in expected:
            conn.send(Frame(MessageType.BYE, 0, 0, encode_notice(BYE_NORMAL, "unknown client id")))
            raise FrameError(f"unknown client id {cid}")
        if cid in self._clients:
            conn.send(
                Frame(MessageType.BYE, 0, 0, encode_notice(BYE_NORMAL, "client id already connected"))
            )
            raise FrameError(f"duplicate client id {cid}")
        local_count = len(self.engine.clients[cid].data)
        if sample_count != local_count:
            conn.send(
                Frame(
                    MessageType.BYE, 0, 0, encode_notice(BYE_CONFIG_MISMATCH, "sample count mismatch")
                )
            )
            raise FrameError(f"client {cid}: sample count {sample_count} != {local_count}")
        conn.send(
            Frame(
                MessageType.HELLO,
                0,
                cid,
                encode_hello(self.config_hash, len(self.engine.clients)),
            )
        )
        self._clients[cid] = _Registered(client_id=cid, conn=conn)
        log.info("client %d registered", cid)

    def _reader(self, reg: _Registered) -> None:
        try:
            while True:
                frame = reg.conn.recv()
                if frame is None:
                    break
                self._inbox.put((reg.client_id, frame))
        except OversizeFrameError as exc:
            log.warning("client %d sent an oversize frame: %s", reg.client_id, exc)
            try:
                reg.conn.send(
                    Frame(MessageType.ABORT, 0, reg.client_id, encode_notice(ABORT_FATAL, str(exc)))
                )
            except OSError:
                pass
        except (OSError, FrameError) as exc:
            log.warning("client %d connection error: %s", reg.client_id, exc)
        reg.alive = False
        self._inbox.put((reg.client_id, None))

    # rounds ---------------------------------------------------------------

    def _broadcast(self, frame_for) -> None:
        for cid in sorted(self._clients):
            reg = self._clients[cid]
            if not reg.alive:
                continue
            try:
                reg.conn.send(frame_for(cid))
            except OSError:
                reg.alive = False

    def _collect(self, round_index: int, participant_ids: list[int], secure: bool):
        wanted = set(participant_ids)
        updates: dict[int, ClientUpdate] = {}
        shares: dict[int, MaskedShare] = {}
        end = time.monotonic() + self.timeout
        while set(updates) != wanted:
            # A reader marks its client dead before queueing its last sentinel,
            # so with the inbox drained a dead, missing client will send nothing.
            if self._inbox.empty():
                lost = sorted(c for c in wanted - set(updates) if not self._clients[c].alive)
                if lost:
                    raise FederationAbort(f"client {lost[0]} disconnected mid-round")
            remaining = end - time.monotonic()
            if remaining <= 0:
                missing = sorted(wanted - set(updates))
                raise FederationAbort(f"timed out waiting for clients {missing}")
            try:
                cid, frame = self._inbox.get(timeout=remaining)
            except queue.Empty:
                continue
            if frame is None:
                if cid in wanted and cid not in updates:
                    raise FederationAbort(f"client {cid} disconnected mid-round")
                continue
            if frame.round_index != round_index or cid not in wanted:
                log.warning("dropping unexpected frame from %d (round %d)", cid, frame.round_index)
                continue
            if secure and frame.msg_type == MessageType.MASKED_SHARE:
                share, update = decode_masked_share(frame)
                shares[cid] = share
                updates[cid] = update
            elif not secure and frame.msg_type == MessageType.CLIENT_UPDATE:
                updates[cid] = decode_client_update(frame)
            else:
                log.warning("dropping frame type %d from client %d", frame.msg_type, cid)
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
                        self._broadcast(
                            lambda cid: Frame(
                                MessageType.ABORT, t, cid, encode_notice(ABORT_RETRY, str(exc))
                            )
                        )
            if failure is not None:
                self._broadcast(
                    lambda cid: Frame(
                        MessageType.ABORT, t, cid, encode_notice(ABORT_FATAL, str(failure))
                    )
                )
                raise TransportError(f"round {t} failed twice: {failure}", exit_code=2)
            summary = encode_round_summary(report.global_loss, report.global_metrics.accuracy)
            self._broadcast(lambda cid: Frame(MessageType.ROUND_REPORT, t, cid, summary))
        self._broadcast(
            lambda cid: Frame(MessageType.BYE, 0, cid, encode_notice(BYE_NORMAL, "run complete"))
        )


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
            if not flags & FLAG_SELECTED:
                continue
            t = frame.round_index
            self.engine.params = params
            self.engine.round_index = t
            update = self.engine.run_local(self.client_id, t)
            if flags & FLAG_SECURE:
                share = self.engine.masked_share_for(update, coefficient, participant_ids)
                conn.send(
                    Frame(
                        MessageType.MASKED_SHARE, t, self.client_id,
                        encode_masked_share(share, update),
                    )
                )
            else:
                conn.send(
                    Frame(MessageType.CLIENT_UPDATE, t, self.client_id, encode_client_update(update))
                )
