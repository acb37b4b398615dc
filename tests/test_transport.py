import dataclasses
import re
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmesh.config import config_hash, load_config
from fedmesh.experiment import build_engine
from fedmesh.federation import ClientUpdate
from fedmesh.privacy import NoiseReceipt
from fedmesh.secure_sum import MaskedShare
from fedmesh.transport import (
    BYE_CONFIG_MISMATCH,
    BYE_NORMAL,
    HEADER,
    LAYOUTS,
    MAX_PAYLOAD,
    FederationClient,
    FederationServer,
    Frame,
    FrameConnection,
    FrameDecoder,
    FrameError,
    MessageType,
    TransportError,
    decode_client_update,
    decode_global_model,
    decode_hello,
    decode_masked_share,
    decode_notice,
    decode_round_summary,
    encode_client_update,
    encode_frame,
    encode_global_model,
    encode_hello,
    encode_masked_share,
    encode_notice,
    encode_round_summary,
    _pack,
    _unpack,
)

from conftest import flag_clients

BASE_OVERRIDES = ["schedule.rounds=3", "transport.timeout_seconds=10"]


def _config(extra=()):
    return load_config("configs/three_domains.cfg", overrides=BASE_OVERRIDES + list(extra))


# -- params codec -------------------------------------------------------------


def _params_block(values):
    """The parameter block that opens a GLOBAL_MODEL payload."""
    return encode_global_model(values, 0.0, 0, [])[: 4 + 8 * len(values)]


def test_params_block_empty_vector():
    assert _params_block(np.empty(0)) == b"\x00\x00\x00\x00"


def test_params_block_golden_bytes():
    assert _params_block(np.array([1.0])) == bytes.fromhex("000000013ff0000000000000")
    # -2.0 and a subnormal-free small value, spot-checking endianness.
    assert _params_block(np.array([-2.0])) == bytes.fromhex("00000001c000000000000000")


def test_params_round_trip_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        values = rng.normal(0, 1e3, int(rng.integers(0, 40)))
        decoded, _, _, _ = decode_global_model(encode_global_model(values, 0.0, 0, []))
        assert decoded.tobytes() == values.tobytes()


def test_params_block_rejects_non_finite():
    with pytest.raises(FrameError):
        _params_block(np.array([np.inf]))


def test_decode_global_model_truncated_params():
    # Two values declared, one sent.
    with pytest.raises(FrameError, match="truncated"):
        decode_global_model(b"\x00\x00\x00\x02" + b"\x00" * 8)


# -- frames -------------------------------------------------------------------


def test_frame_round_trip():
    frame = Frame(MessageType.CLIENT_UPDATE, 7, 3, b"payload")
    decoder = FrameDecoder()
    (out,) = decoder.feed(encode_frame(frame))
    assert out == frame


def test_two_frames_in_one_chunk():
    a = Frame(MessageType.HELLO, 0, 1, b"a")
    b = Frame(MessageType.BYE, 0, 2, b"bb")
    decoder = FrameDecoder()
    out = decoder.feed(encode_frame(a) + encode_frame(b))
    assert out == [a, b]


def test_partial_reassembly_byte_by_byte():
    frame = Frame(MessageType.GLOBAL_MODEL, 1, 2, bytes(range(32)))
    encoded = encode_frame(frame)
    decoder = FrameDecoder()
    collected = []
    for i in range(len(encoded)):
        collected.extend(decoder.feed(encoded[i : i + 1]))
    assert collected == [frame]


def test_bad_magic_raises():
    with pytest.raises(FrameError, match="magic"):
        FrameDecoder().feed(b"XXXX" + b"\x00" * 13)


def test_unknown_type_rejected():
    bad = bytearray(encode_frame(Frame(MessageType.HELLO, 0, 0, b"")))
    bad[4] = 99
    with pytest.raises(FrameError, match="unknown message type"):
        FrameDecoder().feed(bytes(bad))


def test_oversize_declaration_rejected():
    header = b"FDM1" + bytes([1]) + b"\x00" * 8 + (MAX_PAYLOAD + 1).to_bytes(4, "big")
    with pytest.raises(FrameError, match="exceeds"):
        FrameDecoder().feed(header)


def test_decoder_fuzz_never_crashes():
    rng = np.random.default_rng(1)
    survived = 0
    for _ in range(5000):
        buf = rng.bytes(int(rng.integers(0, 80)))
        try:
            FrameDecoder().feed(buf)
            survived += 1
        except FrameError:
            survived += 1
    assert survived == 5000


# -- message payloads ----------------------------------------------------------


# One whole frame of each message type, hex taken before the payload codecs
# were rebuilt on one layout table; the FDM1 bytes must never drift.
FRAME_PINS = {
    MessageType.HELLO: (
        "46444d310100000000000000040000002501000102030405060708090a0b0c0d"
        "0e0f101112131415161718191a1b1c1d1e1f000000f0"
    ),
    MessageType.GLOBAL_MODEL: (
        "46444d3102000000090000000400000029000000023ff0000000000000c00000"
        "00000000003fd000000000000003000000020000000100000004"
    ),
    MessageType.CLIENT_UPDATE: (
        "46444d3103000000090000000400000045000000023fe0000000000000bff400"
        "00000000003ff40000000000003fe8000000000000000000f00001013fe00000"
        "00000000400400000000000000013fb999999999999a"
    ),
    MessageType.MASKED_SHARE: (
        "46444d3104000000090000000400000045000000020000000000000001ffffff"
        "ffffffffff3ff40000000000003fe8000000000000000000f00001013fe00000"
        "00000000400400000000000000013fb999999999999a"
    ),
    MessageType.ROUND_REPORT: (
        "46444d31050000000900000004000000103fe00000000000003fec0000000000"
        "00"
    ),
    MessageType.ABORT: "46444d31060000000900000004000000080100057265747279",
    MessageType.BYE: "46444d310700000000000000040000000f00000c72756e20636f6d706c657465",
}


def test_frame_bytes_are_pinned():
    update = ClientUpdate(
        client_id=4,
        round_index=9,
        delta=np.array([0.5, -1.25]),
        sample_count=240,
        loss_before=1.25,
        loss_after=0.75,
        receipt=NoiseReceipt(sigma=0.5, clip_applied=True, pre_clip_norm=2.5, mechanism="gaussian"),
        tracked_values=(0.1,),
    )
    share = MaskedShare(4, 9, np.array([1, 2**64 - 1], dtype=np.uint64))
    payloads = {
        MessageType.HELLO: encode_hello(bytes(range(32)), 240),
        MessageType.GLOBAL_MODEL: encode_global_model(np.array([1.0, -2.0]), 0.25, 0b011, [1, 4]),
        MessageType.CLIENT_UPDATE: encode_client_update(update),
        MessageType.MASKED_SHARE: encode_masked_share(dataclasses.replace(update, share=share)),
        MessageType.ROUND_REPORT: encode_round_summary(0.5, 0.875),
        MessageType.ABORT: encode_notice(1, "retry"),
        MessageType.BYE: encode_notice(0, "run complete"),
    }
    assert set(payloads) == set(MessageType)
    for msg_type, payload in payloads.items():
        round_index = 0 if msg_type in (MessageType.HELLO, MessageType.BYE) else 9
        frame = Frame(msg_type, round_index, 4, payload)
        assert encode_frame(frame).hex() == FRAME_PINS[msg_type], msg_type.name


def test_hello_round_trip():
    payload = encode_hello(b"\x07" * 32, 123)
    assert decode_hello(payload) == (1, b"\x07" * 32, 123)


def test_global_model_round_trip():
    params = np.linspace(-1, 1, 9)
    payload = encode_global_model(params, 0.25, 0b101, [0, 2, 5])
    out_params, coeff, flags, ids = decode_global_model(payload)
    assert np.array_equal(out_params, params)
    assert coeff == 0.25 and flags == 0b101 and ids == [0, 2, 5]


def _sample_update(diverged=False):
    return ClientUpdate(
        client_id=4,
        round_index=9,
        delta=np.array([0.5, -1.25, 3.0]),
        sample_count=240,
        loss_before=1.25,
        loss_after=0.75,
        receipt=NoiseReceipt(
            sigma=0.5, clip_applied=True, pre_clip_norm=2.5, mechanism="gaussian"
        ),
        diverged=diverged,
        tracked_values=(0.1, -0.2),
    )


def test_client_update_round_trip():
    update = _sample_update()
    frame = Frame(MessageType.CLIENT_UPDATE, 9, 4, encode_client_update(update))
    out = decode_client_update(frame)
    assert np.array_equal(out.delta, update.delta)
    assert out.sample_count == update.sample_count
    assert out.loss_before == update.loss_before
    assert out.loss_after == update.loss_after
    assert out.receipt == update.receipt
    assert out.tracked_values == update.tracked_values
    assert not out.diverged


def test_masked_share_round_trip():
    share = MaskedShare(4, 9, np.array([1, 2**63, 2**64 - 1], dtype=np.uint64))
    update = dataclasses.replace(_sample_update(), share=share)
    frame = Frame(MessageType.MASKED_SHARE, 9, 4, encode_masked_share(update))
    out = decode_masked_share(frame)
    assert np.array_equal(out.share.masked_values, share.masked_values)
    assert out.receipt == update.receipt
    assert out.tracked_values == update.tracked_values


def test_notice_round_trip():
    code, reason = decode_notice(encode_notice(2, "round failed"))
    assert code == 2 and reason == "round failed"


PAYLOAD_DECODERS = {
    "hello": decode_hello,
    "global_model": decode_global_model,
    "client_update": lambda buf: decode_client_update(Frame(MessageType.CLIENT_UPDATE, 0, 0, buf)),
    "masked_share": lambda buf: decode_masked_share(Frame(MessageType.MASKED_SHARE, 0, 0, buf)),
    "round_summary": decode_round_summary,
    "notice": decode_notice,
}


# Arbitrary bytes, or a well-formed vector followed by at least an update
# metadata tail's worth (41 bytes) of arbitrary bytes, so the update
# decoders get past the vector checks as often as not.
_WIRE_BYTES = st.binary(max_size=200) | st.builds(
    lambda dim, tail: dim.to_bytes(4, "big") + bytes(8 * dim) + tail,
    st.integers(0, 3),
    st.binary(min_size=41, max_size=120),
)


@pytest.mark.parametrize("name", sorted(PAYLOAD_DECODERS))
@settings(max_examples=300, deadline=None)
@given(buf=_WIRE_BYTES)
def test_payload_decoders_raise_only_frame_error(name, buf):
    try:
        PAYLOAD_DECODERS[name](buf)
    except FrameError:
        pass


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _updates(draw):
    gaussian = draw(st.booleans())
    receipt = NoiseReceipt(
        sigma=draw(st.floats(min_value=1e-12, max_value=1e12)) if gaussian else 0.0,
        clip_applied=draw(st.booleans()),
        pre_clip_norm=draw(st.floats(min_value=0, allow_infinity=False)),
        mechanism="gaussian" if gaussian else "none",
    )
    return ClientUpdate(
        client_id=draw(st.integers(0, 2**32 - 1)),
        round_index=draw(st.integers(0, 2**32 - 1)),
        delta=np.array(draw(st.lists(_finite, max_size=12)), dtype=np.float64),
        sample_count=draw(st.integers(1, 2**32 - 1)),
        loss_before=draw(st.floats(allow_nan=False)),
        loss_after=draw(st.floats(allow_nan=False)),
        receipt=receipt,
        diverged=draw(st.booleans()),
        tracked_values=tuple(draw(st.lists(_finite, max_size=6))),
    )


def _assert_same_metadata(out, update):
    assert (out.client_id, out.round_index) == (update.client_id, update.round_index)
    assert out.sample_count == update.sample_count
    assert (out.loss_before, out.loss_after) == (update.loss_before, update.loss_after)
    assert out.receipt == update.receipt
    assert out.diverged == update.diverged
    assert out.tracked_values == update.tracked_values


@settings(max_examples=200, deadline=None)
@given(update=_updates())
def test_client_update_round_trip_property(update):
    payload = encode_client_update(update)
    out = decode_client_update(
        Frame(MessageType.CLIENT_UPDATE, update.round_index, update.client_id, payload)
    )
    _assert_same_metadata(out, update)
    # A flagged update travels as zeros, whatever its local delta was.
    sent = np.zeros_like(update.delta) if update.diverged else update.delta
    assert out.delta.tobytes() == sent.tobytes()


@settings(max_examples=200, deadline=None)
@given(update=_updates(), words=st.lists(st.integers(0, 2**64 - 1), max_size=12))
def test_masked_share_round_trip_property(update, words):
    share = MaskedShare(update.client_id, update.round_index, np.array(words, dtype=np.uint64))
    update = dataclasses.replace(update, share=share)
    frame = Frame(
        MessageType.MASKED_SHARE,
        update.round_index,
        update.client_id,
        encode_masked_share(update),
    )
    out = decode_masked_share(frame)
    assert out.share.masked_values.tolist() == words
    assert (out.share.client_id, out.share.round_index) == (share.client_id, share.round_index)
    _assert_same_metadata(out, update)
    assert out.delta.tolist() == [0.0] * len(words)


# -- the layout table -----------------------------------------------------------


_FIELD_VALUES = {
    "B": st.integers(0, 2**8 - 1),
    "H": st.integers(0, 2**16 - 1),
    "I": st.integers(0, 2**32 - 1),
    "d": st.floats(),
}


def _part_values(part):
    """Valid values for one ``LAYOUTS`` part: a field tuple, or a native array."""
    if part.dtype is None:
        fields = []
        for size, code in re.findall(r"(\d*)(\w)", part.head.format.lstrip(">")):
            if code == "s":
                fields.append(st.binary(min_size=int(size), max_size=int(size)))
            else:
                fields += [_FIELD_VALUES[code]] * int(size or 1)
        return st.tuples(*fields)
    dtype = part.dtype
    element = st.floats() if dtype.kind == "f" else st.integers(0, 2 ** (8 * dtype.itemsize) - 1)
    return st.lists(element, max_size=6).map(lambda v: np.array(v, dtype=dtype.type))


def _layout_parts(msg_type):
    return st.tuples(*(_part_values(part) for part in LAYOUTS[msg_type]))


def _bitwise(parts):
    """Parts as comparable bytes, so NaNs and signed zeros compare by their bits."""
    return [
        (p.dtype.str, p.tobytes())
        if isinstance(p, np.ndarray)
        else tuple(struct.pack(">d", v) if isinstance(v, float) else v for v in p)
        for p in parts
    ]


@pytest.mark.parametrize("msg_type", list(MessageType), ids=lambda t: t.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_layout_round_trip_is_bitwise_and_prefixes_are_refused(msg_type, data):
    layout = LAYOUTS[msg_type]
    parts = data.draw(_layout_parts(msg_type))
    payload = _pack(layout, parts)
    assert _bitwise(_unpack(layout, payload)) == _bitwise(parts)
    for end in range(len(payload)):
        with pytest.raises(FrameError, match="truncated"):
            _unpack(layout, payload[:end])


# Decoder name -> the pinned frame whose payload it reads.
PINNED_PAYLOADS = {
    "hello": MessageType.HELLO,
    "global_model": MessageType.GLOBAL_MODEL,
    "client_update": MessageType.CLIENT_UPDATE,
    "masked_share": MessageType.MASKED_SHARE,
    "round_summary": MessageType.ROUND_REPORT,
    "notice": MessageType.BYE,
}


@pytest.mark.parametrize("name", sorted(PAYLOAD_DECODERS))
def test_payload_with_a_trailing_byte_is_refused(name):
    payload = bytes.fromhex(FRAME_PINS[PINNED_PAYLOADS[name]])[HEADER.size :]
    PAYLOAD_DECODERS[name](payload)
    with pytest.raises(FrameError, match="1 trailing bytes"):
        PAYLOAD_DECODERS[name](payload + b"\x00")


def _too_many_tracked_values():
    update = _sample_update()
    update.tracked_values = (0.0,) * 2**16
    return encode_client_update(update)


# Each value lies outside its wire field; none may wrap or escape as another error.
OUT_OF_FIELD = {
    "tracked_count": _too_many_tracked_values,
    "id_wraps_in_numpy": lambda: encode_global_model(np.zeros(1), 0.0, 0, np.array([2**32])),
    "negative_id": lambda: encode_global_model(np.zeros(1), 0.0, 0, [-1]),
    "id_beyond_u32": lambda: encode_global_model(np.zeros(1), 0.0, 0, [2**32]),
    "fractional_id": lambda: encode_global_model(np.zeros(1), 0.0, 0, [1.5]),
    "flags": lambda: encode_global_model(np.zeros(1), 0.0, 256, []),
    "coefficient": lambda: encode_global_model(np.zeros(1), 10**400, 0, []),
    "hello_count": lambda: encode_hello(b"\x00" * 32, 2**32),
    "notice_code": lambda: encode_notice(-1, "x"),
}


@pytest.mark.parametrize("name", sorted(OUT_OF_FIELD))
def test_pack_refuses_values_outside_their_field(name):
    with pytest.raises(FrameError):
        OUT_OF_FIELD[name]()


# -- sockets -------------------------------------------------------------------


def _run_federation(config, client_ids, client_config=None, engine=None, client_engines=None):
    """Serve ``config`` and join ``client_ids``, each in its own thread.

    ``engine`` and ``client_engines`` (by client id) replace the engines
    that would be built from the configs.
    """
    engine = engine or build_engine(config)
    server = FederationServer(engine, config_hash(config), port=0, timeout=10)
    addr = server.address
    errors = []

    def serve():
        try:
            server.wait_for_clients()
            server.run()
        except Exception as exc:  # surfaced to the test
            errors.append(exc)

    def join(cid):
        try:
            cfg = client_config or config
            own = (client_engines or {}).get(cid) or build_engine(cfg)
            FederationClient(own, cid, config_hash(cfg), addr, timeout=10).run()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=serve)]
    threads += [threading.Thread(target=join, args=(cid,)) for cid in client_ids]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    server.close()
    return engine, errors


def _serve_in_test_thread(config, silent=False):
    """Serve ``config`` from this thread, one client thread per client id.

    With ``silent``, a connection that never sends a byte is opened before
    any client starts.  Returns the engine, the client errors and what
    held right after registration: the thread count beyond the clients'
    and whether the silent connection had been hung up on.
    """
    engine = build_engine(config)
    server = FederationServer(engine, config_hash(config), port=0, timeout=10)
    quiet = socket.create_connection(server.address, timeout=10) if silent else None
    errors = []

    def join(cid):
        try:
            FederationClient(
                build_engine(config), cid, config_hash(config), server.address, timeout=10
            ).run()
        except Exception as exc:  # surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=join, args=(cid,)) for cid in sorted(engine.clients)]
    seen = {}
    before = threading.active_count()
    try:
        for thread in threads:
            thread.start()
        server.wait_for_clients()
        seen["extra_threads"] = threading.active_count() - before - len(threads)
        if quiet is not None:
            seen["silent_hung_up"] = quiet.recv(1) == b""
        server.run()
    finally:
        server.close()
        for thread in threads:
            thread.join(60)
        if quiet is not None:
            quiet.close()
    assert not any(thread.is_alive() for thread in threads)
    return engine, errors, seen


def test_silent_connection_does_not_stall_registration():
    config = _config()
    sim = build_engine(config)
    sim.run()
    engine, errors, seen = _serve_in_test_thread(config, silent=True)
    assert errors == []
    assert seen["silent_hung_up"]
    assert np.array_equal(engine.params, sim.params)
    assert engine.reports == sim.reports


def test_sixteen_client_secure_loopback_is_single_threaded():
    config = _config(
        [
            "secure_aggregation=true",
            "schedule.rounds=2",
            "domains.0.clients=6",
            "domains.1.clients=5",
            "domains.2.clients=5",
        ]
    )
    sim = build_engine(config)
    sim.run()
    engine, errors, seen = _serve_in_test_thread(config)
    assert errors == []
    assert len(engine.clients) == 16
    # The server reads every socket from its caller's thread.
    assert seen["extra_threads"] == 0
    assert np.array_equal(engine.params, sim.params)


def test_socket_run_matches_simulate_bitwise():
    config = _config()
    sim = build_engine(config)
    sim.run()
    engine, errors = _run_federation(config, [0, 1, 2])
    assert errors == []
    assert np.array_equal(engine.params, sim.params)
    assert engine.reports == sim.reports


def test_single_client_socket_matches_simulate():
    config = load_config(
        "configs/iid_baseline.cfg",
        overrides=["domains.0.clients=1", "schedule.rounds=3", "transport.timeout_seconds=10"],
    )
    sim = build_engine(config)
    sim.run()
    engine, errors = _run_federation(config, [0])
    assert errors == []
    assert np.array_equal(engine.params, sim.params)


def test_protocol_version_mismatch_gets_bye():
    config = _config()
    engine = build_engine(config)
    server = FederationServer(engine, config_hash(config), port=0, timeout=3)
    addr = server.address

    def serve():
        try:
            server.wait_for_clients()
        except TransportError:
            pass  # handshake never completes; the accept loop times out

    thread = threading.Thread(target=serve)
    thread.start()
    sock = socket.create_connection(addr, timeout=5)
    conn = FrameConnection(sock)
    bad_hello = struct.pack(">B32sI", 99, config_hash(config), 240)
    conn.send(Frame(MessageType.HELLO, 0, 0, bad_hello))
    reply = conn.recv()
    assert reply is not None and reply.msg_type == MessageType.BYE
    _, reason = decode_notice(reply.payload)
    assert "version" in reason
    conn.close()
    thread.join(30)
    server.close()


@pytest.mark.parametrize(
    "first_frame, reply",
    [
        (
            lambda h, n: Frame(MessageType.HELLO, 0, 7, encode_hello(h, n)),
            (BYE_NORMAL, "unknown client id"),
        ),
        (
            lambda h, n: Frame(MessageType.HELLO, 0, 0, encode_hello(h, n + 1)),
            (BYE_CONFIG_MISMATCH, "sample count mismatch"),
        ),
        (lambda h, n: Frame(MessageType.ROUND_REPORT, 0, 0, encode_round_summary(0.0, 0.0)), None),
    ],
    ids=["unknown_client_id", "wrong_sample_count", "not_hello"],
)
def test_server_refuses_a_bad_first_frame_and_keeps_waiting(first_frame, reply):
    config = load_config(
        "configs/iid_baseline.cfg", overrides=["domains.0.clients=1", "transport.timeout_seconds=10"]
    )
    engine = build_engine(config)
    digest, samples = config_hash(config), len(engine.clients[0].data)
    server = FederationServer(engine, digest, port=0, timeout=10)
    thread = threading.Thread(target=server.wait_for_clients)
    thread.start()
    conns = []
    try:
        conns.append(FrameConnection(socket.create_connection(server.address, timeout=10)))
        conns[0].send(first_frame(digest, samples))
        if reply is not None:
            bye = conns[0].recv()
            assert bye.msg_type == MessageType.BYE and decode_notice(bye.payload) == reply
        assert conns[0].recv() is None  # then the server closes the connection
        # The refusal does not stop registration: the real client still gets in.
        conns.append(FrameConnection(socket.create_connection(server.address, timeout=10)))
        conns[1].send(Frame(MessageType.HELLO, 0, 0, encode_hello(digest, samples)))
        assert conns[1].recv().msg_type == MessageType.HELLO
        thread.join(30)
        assert not thread.is_alive()
    finally:
        for conn in conns:
            conn.close()
        server.close()


def test_both_ends_of_every_connection_set_tcp_nodelay():
    # Without it, Nagle's algorithm stalls each round on the peer's delayed ACK.
    config = load_config(
        "configs/iid_baseline.cfg", overrides=["domains.0.clients=2", "transport.timeout_seconds=10"]
    )
    engine = build_engine(config)
    server = FederationServer(engine, config_hash(config), port=0, timeout=10)
    thread = threading.Thread(target=server.wait_for_clients)
    thread.start()
    clients = []
    try:
        for cid in sorted(engine.clients):
            conn = FrameConnection(socket.create_connection(server.address, timeout=10))
            clients.append(conn)
            samples = len(engine.clients[cid].data)
            conn.send(Frame(MessageType.HELLO, 0, cid, encode_hello(config_hash(config), samples)))
            assert conn.recv().msg_type == MessageType.HELLO
        thread.join(30)
        assert not thread.is_alive()
        server_conns = list(server._clients.values())
        assert len(server_conns) == 2
        for conn in server_conns + clients:
            assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
    finally:
        for conn in clients:
            conn.close()
        server.close()


def test_socket_secure_run_matches_simulate_bitwise():
    config = _config(["secure_aggregation=true"])
    sim = build_engine(config)
    sim.run()
    engine, errors = _run_federation(config, [0, 1, 2])
    assert errors == []
    assert np.array_equal(engine.params, sim.params)


def _completed_updates(engine):
    """The updates of each round ``engine`` completes, recorded as they arrive."""
    rounds = []
    complete_round = engine.complete_round

    def recording(inputs):
        rounds.append(list(inputs.updates))
        return complete_round(inputs)

    engine.complete_round = recording
    return rounds


def test_complete_round_gets_equal_secure_updates_in_simulate_and_serve():
    # Each carries its masked share and a zero delta, whichever driver made it.
    config = _config(["secure_aggregation=true", "schedule.participation_fraction=0.5"])
    sim = build_engine(config)
    flagged = sim.participants(0)[0]
    simulated = _completed_updates(flag_clients(sim, {flagged}))
    sim.run()
    engine = build_engine(config)
    served = _completed_updates(engine)
    clients = {cid: build_engine(config) for cid in engine.clients}
    flag_clients(clients[flagged], {flagged})
    _, errors = _run_federation(config, sorted(clients), engine=engine, client_engines=clients)
    assert errors == []
    assert len(served) == config.schedule.rounds
    assert any(u.diverged for updates in simulated for u in updates)
    for got_round, want_round in zip(served, simulated, strict=True):
        assert len(got_round) == len(want_round) < len(clients)
        for got, want in zip(got_round, want_round):
            assert got.delta.tobytes() == want.delta.tobytes() == bytes(len(want.delta) * 8)
            assert got.share.masked_values.tobytes() == want.share.masked_values.tobytes()
            assert (got.share.client_id, got.share.round_index) == (want.client_id, want.round_index)
            _assert_same_metadata(got, want)
    assert np.array_equal(engine.params, sim.params)


def test_only_the_masking_processes_derive_pair_seeds():
    config = _config(["secure_aggregation=true"])
    engine = build_engine(config)
    clients = {cid: build_engine(config) for cid in engine.clients}
    _, errors = _run_federation(config, sorted(clients), engine=engine, client_engines=clients)
    assert errors == []
    assert "seed_matrix" not in vars(engine)
    assert all("seed_matrix" in vars(client) for client in clients.values())


@pytest.mark.parametrize("secure", [True, False])
def test_a_masking_client_derives_its_pair_seeds_before_it_connects(secure):
    config = _config([f"secure_aggregation={str(secure).lower()}"])
    engine = build_engine(config)
    FederationClient(engine, 0, config_hash(config), ("127.0.0.1", 1), timeout=1)
    assert ("seed_matrix" in vars(engine)) == secure


def test_partial_participation_socket_matches_simulate(tmp_path):
    config = _config(["schedule.participation_fraction=0.5"])
    sim = build_engine(config)
    sim.run()
    engine, errors = _run_federation(config, [0, 1, 2])
    assert errors == []
    assert np.array_equal(engine.params, sim.params)
    # Idle-client records hold NaNs, so compare the serialized artifacts.
    from datetime import datetime, timezone

    from fedmesh.outputs import write_run_artifacts

    stamp = datetime.now(timezone.utc)
    a, b = tmp_path / "sim", tmp_path / "srv"
    a.mkdir(), b.mkdir()
    write_run_artifacts(a, config, sim.reports, stamp)
    write_run_artifacts(b, config, engine.reports, stamp)
    for name in ("loss_curves.csv", "param_trace.csv", "metrics.csv", "clients.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_five_client_secure_loopback_matches_plaintext_pipeline():
    # Same round, masked over sockets vs plaintext in-process, within the
    # fixed-point bound.
    overrides = ["domains.0.clients=2", "domains.1.clients=2", "schedule.rounds=1"]
    masked_cfg = _config(overrides + ["secure_aggregation=true"])
    plain_cfg = _config(overrides)
    plain = build_engine(plain_cfg)
    plain.run()
    engine, errors = _run_federation(masked_cfg, [0, 1, 2, 3, 4])
    assert errors == []
    assert len(engine.clients) == 5
    assert np.max(np.abs(engine.params - plain.params)) <= 5 * 2.0**-23


def test_duplicate_client_id_rejected():
    config = _config()
    engine = build_engine(config)
    server = FederationServer(engine, config_hash(config), port=0, timeout=10)
    addr = server.address
    results = {}

    def serve():
        try:
            server.wait_for_clients()
            server.run()
        except Exception as exc:
            results["server"] = exc

    def join(name, cid, delay=0.0):
        import time

        time.sleep(delay)
        try:
            FederationClient(build_engine(config), cid, config_hash(config), addr, timeout=10).run()
            results[name] = None
        except TransportError as exc:
            results[name] = exc

    threads = [
        threading.Thread(target=serve),
        threading.Thread(target=join, args=("first", 0)),
        threading.Thread(target=join, args=("dup", 0, 0.5)),
        threading.Thread(target=join, args=("c1", 1, 0.7)),
        threading.Thread(target=join, args=("c2", 2, 0.9)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    server.close()
    assert "server" not in results
    assert results["first"] is None and results["c1"] is None and results["c2"] is None
    assert isinstance(results["dup"], TransportError)


def test_config_hash_mismatch_exits_3_on_both_sides():
    config = _config()
    other = _config(["seed=777"])  # different semantic hash
    engine = build_engine(config)
    server = FederationServer(engine, config_hash(config), port=0, timeout=5)
    addr = server.address
    caught = {}

    def serve():
        try:
            server.wait_for_clients()
        except TransportError as exc:
            caught["server"] = exc

    thread = threading.Thread(target=serve)
    thread.start()
    client = FederationClient(build_engine(other), 0, config_hash(other), addr, timeout=5)
    with pytest.raises(TransportError) as info:
        client.run()
    assert info.value.exit_code == BYE_CONFIG_MISMATCH
    thread.join(30)
    server.close()
    assert isinstance(caught.get("server"), TransportError)
    assert caught["server"].exit_code == BYE_CONFIG_MISMATCH


def test_oversize_frame_gets_abort_reply():
    from fedmesh.transport import HEADER, MAGIC, MAX_PAYLOAD

    config = _config(["transport.timeout_seconds=3"])
    engine = build_engine(config)
    server = FederationServer(engine, config_hash(config), port=0, timeout=3)
    addr = server.address
    outcome = {}

    def serve():
        try:
            server.wait_for_clients()
            server.run()
        except TransportError as exc:
            outcome["server"] = exc

    def oversize_after_handshake(cid):
        sock = socket.create_connection(addr, timeout=5)
        conn = FrameConnection(sock)
        conn.send(Frame(MessageType.HELLO, 0, cid, encode_hello(config_hash(config), 240)))
        conn.recv()  # ack
        conn.recv()  # GLOBAL_MODEL
        # Declare a payload beyond the limit; the reader must reply ABORT.
        sock.sendall(HEADER.pack(MAGIC, int(MessageType.CLIENT_UPDATE), 0, cid, MAX_PAYLOAD + 1))
        reply = conn.recv()
        outcome["reply"] = reply
        conn.close()

    def join(cid):
        try:
            FederationClient(build_engine(config), cid, config_hash(config), addr, timeout=10).run()
        except TransportError:
            pass

    threads = [
        threading.Thread(target=serve),
        threading.Thread(target=oversize_after_handshake, args=(0,)),
        threading.Thread(target=join, args=(1,)),
        threading.Thread(target=join, args=(2,)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    server.close()
    assert outcome["reply"] is not None
    assert outcome["reply"].msg_type == MessageType.ABORT


def test_client_disconnect_mid_round_ends_the_run():
    config = _config(["transport.timeout_seconds=2"])
    engine = build_engine(config)
    server = FederationServer(engine, config_hash(config), port=0, timeout=2)
    addr = server.address
    server_error = {}

    def serve():
        try:
            server.wait_for_clients()
            server.run()
        except (TransportError, Exception) as exc:
            server_error["exc"] = exc

    def join_and_vanish(cid):
        # Handshake, then drop the connection before ever replying.
        sock = socket.create_connection(addr, timeout=5)
        conn = FrameConnection(sock)
        conn.send(Frame(MessageType.HELLO, 0, cid, encode_hello(config_hash(config), 240)))
        conn.recv()  # ack
        conn.recv()  # GLOBAL_MODEL
        conn.close()

    def join(cid):
        try:
            FederationClient(build_engine(config), cid, config_hash(config), addr, timeout=10).run()
        except TransportError:
            pass  # fatal abort is expected here

    threads = [
        threading.Thread(target=serve),
        threading.Thread(target=join_and_vanish, args=(0,)),
        threading.Thread(target=join, args=(1,)),
        threading.Thread(target=join, args=(2,)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    server.close()
    assert isinstance(server_error.get("exc"), TransportError)
    assert server_error["exc"].exit_code == 2


def test_silent_client_ends_the_run_after_one_collect_deadline():
    timeout = 1.0
    config = load_config(
        "configs/iid_baseline.cfg", overrides=["domains.0.clients=1", "schedule.rounds=1"]
    )
    server = FederationServer(build_engine(config), config_hash(config), port=0, timeout=timeout)
    samples = len(server.engine.clients[0].data)
    outcome = {}

    def serve():
        server.wait_for_clients()
        started = time.monotonic()
        try:
            server.run()
        except TransportError as exc:
            outcome["error"] = exc
        outcome["seconds"] = time.monotonic() - started

    thread = threading.Thread(target=serve)
    thread.start()
    conn = FrameConnection(socket.create_connection(server.address, timeout=10))
    try:
        conn.send(Frame(MessageType.HELLO, 0, 0, encode_hello(config_hash(config), samples)))
        assert conn.recv().msg_type == MessageType.HELLO
        assert conn.recv().msg_type == MessageType.GLOBAL_MODEL
        after = conn.recv()  # the client never answers
    finally:
        thread.join(30)
        conn.close()
        server.close()
    assert not thread.is_alive()
    assert after.msg_type == MessageType.ABORT
    assert decode_notice(after.payload)[0] == 2
    assert str(outcome["error"]) == "round 0 failed: timed out waiting for clients [0]"
    assert outcome["error"].exit_code == 2
    assert outcome["seconds"] < 2 * timeout


@pytest.mark.parametrize("secure", [False, True], ids=["plain", "secure"])
def test_global_model_bytes_follow_the_fixed_header_rule(monkeypatch, secure):
    # Selected clients get flags bit0, every client bit1 under secure
    # aggregation, and only a selected secure client a nonzero coefficient.
    config = _config(
        ["schedule.participation_fraction=0.5", f"secure_aggregation={str(secure).lower()}"]
    )
    sent = []
    real_send = FrameConnection.send

    def recording_send(conn, frame):
        if frame.msg_type == MessageType.GLOBAL_MODEL:
            sent.append((frame.round_index, frame.client_id, frame.payload))
        real_send(conn, frame)

    monkeypatch.setattr(FrameConnection, "send", recording_send)
    _, errors = _run_federation(config, [0, 1, 2])
    assert errors == []
    sim = build_engine(config)
    expected = []
    for t in range(config.schedule.rounds):
        inputs = sim.begin_round(t)
        pids = inputs.participant_ids
        assert 0 < len(pids) < len(sim.clients)
        for cid in sorted(sim.clients):
            selected = cid in pids
            flags = (0x02 if secure else 0) | (0x01 if selected else 0)
            coefficient = inputs.coefficients[cid] if secure and selected else 0.0
            expected.append((t, cid, encode_global_model(sim.params, coefficient, flags, pids)))
        sim.run_round()
    assert sent == expected


def test_client_gives_up_on_a_silent_server():
    config = _config()
    listener = socket.create_server(("127.0.0.1", 0))
    release = threading.Event()
    outcome = {}

    def ack_then_fall_silent():
        sock, _ = listener.accept()
        conn = FrameConnection(sock)
        hello = conn.recv()
        conn.send(Frame(MessageType.HELLO, 0, hello.client_id, encode_hello(config_hash(config), 3)))
        release.wait(30)
        conn.close()

    def join():
        client = FederationClient(
            build_engine(config), 0, config_hash(config), listener.getsockname()[:2], timeout=0.2
        )
        started = time.monotonic()
        try:
            client.run()
        except TransportError as exc:
            outcome["error"] = exc
        outcome["seconds"] = time.monotonic() - started

    server = threading.Thread(target=ack_then_fall_silent)
    joiner = threading.Thread(target=join)
    server.start()
    joiner.start()
    joiner.join(10)
    release.set()
    server.join(10)
    joiner.join(10)
    listener.close()
    assert not server.is_alive() and not joiner.is_alive()
    assert outcome["error"].exit_code == 2
    assert "no frame from the server" in str(outcome["error"])
    assert outcome["seconds"] < 5
