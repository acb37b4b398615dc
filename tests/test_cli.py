import csv
import hashlib
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest

from conftest import ROOT, run_python, write_dataset_csv
from fedmesh.cli import main
from fedmesh.config import load_config
from fedmesh.experiment import build_engine
from fedmesh.model import Dataset
from fedmesh.transport import FLAG_SECURE, FLAG_SELECTED

CONFIG = "configs/three_domains.cfg"
FAST = ["--override", "schedule.rounds=4"]


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_simulate_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--config", CONFIG, "--out", str(out), *FAST])
    assert code == 0
    for name in ("loss_curves.csv", "param_trace.csv", "metrics.csv", "clients.csv", "manifest.json"):
        assert (out / name).exists(), name

    losses = _read_csv(out / "loss_curves.csv")
    assert losses[0] == ["round", "domain", "loss"]
    # three domains x 4 rounds
    assert len(losses) == 1 + 3 * 4

    metrics = _read_csv(out / "metrics.csv")
    assert metrics[0] == ["round", "accuracy", "precision", "recall", "f1"]
    assert len(metrics) == 1 + 4

    trace = _read_csv(out / "param_trace.csv")
    assert trace[0] == ["round", "domain_eval_tag", "index", "value"]
    tags = {row[1] for row in trace[1:]}
    assert tags == {"global", "medical", "financial", "user"}

    manifest = json.loads((out / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == {
        "loss_curves.csv",
        "param_trace.csv",
        "metrics.csv",
        "clients.csv",
    }
    assert len(manifest["config_hash"]) == 64


def test_domain_tagged_global_is_refused_and_the_global_row_traces_the_global_model(tmp_path, capsys):
    # A domain tagged "global" used to overwrite the global model's rows of
    # param_trace.csv with its own mean local model, and the run exited 0.
    raw = {
        "seed": 42,
        "model": {"feature_dim": 2, "class_count": 3},
        "domains": [
            {"recipe": "medical", "train_samples": 240, "eval_samples": 120},
            {"recipe": "financial", "tag": "global", "train_samples": 240, "eval_samples": 120},
        ],
        "schedule": {"rounds": 2},
        "tracked_indices": [0, 1],
    }
    path = tmp_path / "tagged.cfg"
    path.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "refused")]) == 1
    message = "config error: domains[1].tag: 'global' is reserved for the global model\n"
    assert capsys.readouterr().err == message
    assert not (tmp_path / "refused").exists()

    raw["domains"][1]["tag"] = "fin"
    path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    engine = build_engine(load_config(str(path)))
    rows = [row for row in _read_csv(out / "param_trace.csv")[1:] if row[1] == "global"]
    for t in range(2):
        engine.run_round()
        assert [float(row[3]) for row in rows if row[0] == str(t)] == list(engine.params[[0, 1]])


def test_simulate_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", CONFIG, "--out", str(out_a), *FAST]) == 0
    assert main(["simulate", "--config", CONFIG, "--out", str(out_b), *FAST]) == 0
    for name in ("loss_curves.csv", "param_trace.csv", "metrics.csv", "clients.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_output_dir_protection(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "keep.txt").write_text("data")
    code = main(["simulate", "--config", CONFIG, "--out", str(out), *FAST])
    assert code == 1
    assert main(["simulate", "--config", CONFIG, "--out", str(out), "--force", *FAST]) == 0


@pytest.mark.parametrize("command", ["simulate", "baseline"])
def test_output_path_below_a_file_exits_1_in_one_line(tmp_path, capsys, command):
    (tmp_path / "F").touch()
    out = str(tmp_path / "F" / "sub")
    assert main([command, "--config", "configs/iid_baseline.cfg", "--out", out, *FAST]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"config error: output path {out!r} cannot be created: Not a directory"
    ]


@pytest.mark.parametrize(
    "command,artifact",
    [
        ("simulate", "metrics.csv"),
        ("simulate", "manifest.json.tmp"),
        ("simulate", "manifest.json"),
        ("baseline", "baseline_metrics.csv"),
        ("baseline", "manifest.json"),
    ],
)
def test_output_file_that_cannot_be_written_exits_1_in_one_line(tmp_path, capsys, command, artifact):
    # A directory stands where the artifact goes; this was reported as a network error.
    (tmp_path / artifact).mkdir()
    args = [command, "--config", "configs/iid_baseline.cfg", "--out", str(tmp_path), "--force", *FAST]
    assert main(args) == 1
    path = str(tmp_path / artifact)
    assert capsys.readouterr().err.splitlines() == [
        f"config error: output file {path!r} cannot be written: Is a directory"
    ]


@pytest.mark.parametrize("command", ["simulate", "baseline"])
def test_a_manifest_that_cannot_be_replaced_leaves_no_tmp_file(tmp_path, capsys, command):
    (tmp_path / "manifest.json").mkdir()
    (tmp_path / "manifest.json" / "x").touch()
    args = [command, "--config", "configs/iid_baseline.cfg", "--out", str(tmp_path), "--force", *FAST]
    assert main(args) == 1
    assert "cannot be written: Is a directory" in capsys.readouterr().err
    assert "manifest.json.tmp" not in [p.name for p in tmp_path.iterdir()]
    assert [p.name for p in (tmp_path / "manifest.json").iterdir()] == ["x"]


def _csv_config(tmp_path, header, rows):
    """A two-class config whose one domain reads a CSV file of ``header`` and ``rows`` (bytes)."""
    (tmp_path / "domain.csv").write_bytes(header + b"".join(rows))
    config = {
        "seed": 1,
        "model": {"feature_dim": 2, "class_count": 2},
        "domains": [
            {
                "tag": "file",
                "csv": {"path": str(tmp_path / "domain.csv"), "feature_columns": ["a", "b"], "label_column": "label"},
            }
        ],
        "schedule": {"rounds": 2},
    }
    (tmp_path / "csv.cfg").write_text(json.dumps(config))
    return str(tmp_path / "csv.cfg")


ROWS = [b"1.0,2.0,x\r\n", b"3.0,4.0,y\r\n", b"5.0,6.0,x\r\n", b"7.0,8.0,y\r\n"]


def test_csv_domain_with_a_byte_order_mark_runs(tmp_path, capsys):
    config = _csv_config(tmp_path, b"\xef\xbb\xbfa,b,label\r\n", ROWS)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""


def test_csv_domain_naming_a_column_twice_exits_1_in_one_line(tmp_path, capsys):
    rows = [b"1.0,2.0,100.0,x\n", b"3.0,4.0,300.0,y\n", b"5.0,6.0,500.0,x\n"]
    config = _csv_config(tmp_path, b"a,b,a,label\n", rows)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 1
    message = f"{tmp_path / 'domain.csv'}: column 'a' appears more than once in the header"
    assert capsys.readouterr().err.splitlines() == [f"config error: domains[0].csv: {message}"]


MISMATCHED_LABELS = (
    "config error: domains[1].csv: labels ('high', 'low', 'medium') "
    "differ from domains[0].csv's ('mild', 'moderate', 'severe')"
)


@pytest.mark.parametrize(
    "bank_labels,code,err",
    [(("mild", "moderate", "severe"), 0, []), (("high", "low", "medium"), 1, [MISMATCHED_LABELS])],
    ids=["same", "different"],
)
def test_csv_domains_must_share_label_names(tmp_path, capsys, bank_labels, code, err):
    # Label names map to classes in sorted order per file, so 'high' would train as 'mild'.
    dataset = Dataset(np.random.default_rng(3).normal(0, 1, (30, 2)), np.arange(30) % 3, 3)
    domains = []
    for tag, labels in [("hospital", ("mild", "moderate", "severe")), ("bank", bank_labels)]:
        write_dataset_csv(tmp_path / f"{tag}.csv", dataset, ("a", "b", "label"), labels)
        csv_source = {"path": str(tmp_path / f"{tag}.csv"), "feature_columns": ["a", "b"], "label_column": "label"}
        domains.append({"tag": tag, "csv": csv_source})
    config = {"seed": 1, "model": {"feature_dim": 2, "class_count": 3}, "domains": domains, "schedule": {"rounds": 2}}
    (tmp_path / "csv.cfg").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(tmp_path / "csv.cfg"), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.splitlines() == err


def test_bad_config_exits_1(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(json.dumps({"seed": 1}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


# An oversized step under an L2 term blows up to a non-finite trajectory in round 0.
DIVERGING = [
    "model.l2_coefficient=1.0",
    "schedule.learning_rate=1e6",
    "schedule.rounds=1",
    "schedule.local_epochs=80",
    "privacy.enabled=false",
]


def test_diverging_run_exits_2(tmp_path):
    code = main(["simulate", "--config", CONFIG, "--out", str(tmp_path / "o"), *_override_flags(DIVERGING)])
    assert code == 2


def test_diverging_baseline_exits_2_in_one_line(tmp_path, capsys):
    code = main(["baseline", "--config", CONFIG, "--out", str(tmp_path / "o"), *_override_flags(DIVERGING)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("run aborted: round 0:")


# Huge steps keep the update finite but beyond the fixed-point codec's range.
OVERFLOW = ["secure_aggregation=true", "privacy.enabled=false", "schedule.learning_rate=1e13"]


def _override_flags(items):
    return [arg for item in items for arg in ("--override", item)]


def test_fixed_point_overflow_exits_2(tmp_path, capsys):
    code = main(
        ["simulate", "--config", CONFIG, "--out", str(tmp_path / "o"), *_override_flags(OVERFLOW)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith("run aborted: client 0, round 0:")


def test_server_aborts_at_once_when_a_participant_is_gone():
    # The lone client's share overflows, so it aborts and hangs up in round 0;
    # the server must not wait out its timeout for it.
    from fedmesh.config import config_hash, load_config
    from fedmesh.experiment import build_engine
    from fedmesh.transport import FederationServer, TransportError

    overrides = OVERFLOW + ["domains.0.clients=1"]
    config = load_config("configs/iid_baseline.cfg", overrides=overrides)
    server = FederationServer(build_engine(config), config_hash(config), port=0, timeout=20)
    host, port = server.address
    outcome = {}

    def serve():
        started = time.monotonic()
        try:
            server.wait_for_clients()
            server.run()
        except TransportError as exc:
            outcome["error"] = exc
        outcome["seconds"] = time.monotonic() - started

    thread = threading.Thread(target=serve)
    thread.start()
    code = main(
        [
            "join", "--config", "configs/iid_baseline.cfg", "--server", f"{host}:{port}",
            "--client-id", "0", *_override_flags(overrides),
        ]
    )
    thread.join(60)
    server.close()
    assert not thread.is_alive()
    assert code == 2
    assert outcome["error"].exit_code == 2
    assert outcome["seconds"] < 10


def test_serve_and_join_over_ipv6(tmp_path, caplog):
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        pytest.skip("cannot bind ::1 on this machine")
    overrides = _override_flags(["domains.0.clients=1", "schedule.rounds=2"])
    config = ["--config", "configs/iid_baseline.cfg", *overrides]
    caplog.set_level(logging.INFO, logger="fedmesh.cli")
    outcome = {}

    def serve():
        out = ["--out", str(tmp_path / "o"), "--listen", "[::1]:0"]
        outcome["serve"] = main(["serve", *config, *out])

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        deadline = time.monotonic() + 10
        while not [r for r in caplog.records if r.msg.startswith("listening on")]:
            assert thread.is_alive() and time.monotonic() < deadline, "serve never listened"
            time.sleep(0.02)
        listening = next(r for r in caplog.records if r.msg.startswith("listening on"))
        host, port = listening.args
        assert host == "::1"
        code = main(["join", *config, "--server", f"[::1]:{port}", "--client-id", "0"])
    finally:
        thread.join(30)
    assert not thread.is_alive()
    assert (code, outcome["serve"]) == (0, 0)


@pytest.mark.parametrize("command", ["serve", "join"])
@pytest.mark.parametrize("address", ["[::1", "[::1]7700", "[::1]:port"])
def test_bad_bracketed_address_exits_1_in_one_line(tmp_path, capsys, command, address):
    flag = "--listen" if command == "serve" else "--server"
    where = ["--out", str(tmp_path / "o")] if command == "serve" else ["--client-id", "0"]
    assert main([command, "--config", CONFIG, flag, address, *where]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: bad address {address!r}")


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _update_payload(samples, dim=9, tracked=(0.0, 0.0)):
    """A CLIENT_UPDATE payload, unchecked, so it may break ClientUpdate's own rules."""
    from fedmesh.federation import ClientUpdate
    from fedmesh.privacy import NoiseReceipt
    from fedmesh.transport import encode_client_update

    receipt = NoiseReceipt(sigma=0.0, clip_applied=False, pre_clip_norm=0.0, mechanism="none")
    update = ClientUpdate(0, 0, np.zeros(dim), 1, 1.0, 0.5, receipt, tracked_values=tracked)
    update.sample_count = samples
    return encode_client_update(update)


# iid_baseline.cfg has 9 parameters and tracks 2 of them.
MALFORMED_UPDATES = {
    "empty": lambda samples: b"",
    "zero_samples": lambda samples: _update_payload(0),
    "wrong_dimension": lambda samples: _update_payload(samples, dim=1),
    "wrong_tracked_count": lambda samples: _update_payload(samples, tracked=()),
    "wrong_sample_count": lambda samples: _update_payload(samples + 1),
    "trailing_byte": lambda samples: _update_payload(samples) + b"\x00",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_UPDATES))
def test_serve_exits_2_on_a_malformed_update(tmp_path, capsys, name):
    # The lone client sends a bad update in round 0: the server drops it, the
    # round fails, and serve ends with one line and exit code 2.
    from fedmesh.config import config_hash, load_config
    from fedmesh.experiment import build_engine
    from fedmesh.transport import Frame, FrameConnection, MessageType, encode_hello

    overrides = ["domains.0.clients=1", "schedule.rounds=1", "transport.timeout_seconds=5"]
    config = load_config("configs/iid_baseline.cfg", overrides=overrides)
    samples = len(build_engine(config).clients[0].data)
    port = _free_port()
    outcome = {}

    def serve():
        outcome["code"] = main(
            [
                "serve", "--config", "configs/iid_baseline.cfg", "--out", str(tmp_path / "o"),
                "--listen", f"127.0.0.1:{port}", *_override_flags(overrides),
            ]
        )

    thread = threading.Thread(target=serve)
    thread.start()
    deadline = time.monotonic() + 10
    while True:
        try:
            conn = FrameConnection(socket.create_connection(("127.0.0.1", port), timeout=5))
            break
        except ConnectionRefusedError:
            assert time.monotonic() < deadline, "serve never listened"
            time.sleep(0.05)
    try:
        conn.send(Frame(MessageType.HELLO, 0, 0, encode_hello(config_hash(config), samples)))
        assert conn.recv().msg_type == MessageType.HELLO
        assert conn.recv().msg_type == MessageType.GLOBAL_MODEL
        conn.send(Frame(MessageType.CLIENT_UPDATE, 0, 0, MALFORMED_UPDATES[name](samples)))
        assert conn.recv() is None  # dropped
    finally:
        conn.close()
        thread.join(30)
    assert not thread.is_alive()
    assert outcome["code"] == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.strip().splitlines()[-1]
    assert last.startswith("transport error: round 0 failed: client 0 dropped: malformed")


def test_validate_prints_canonical_form(tmp_path, capsys):
    assert main(["validate", "--config", CONFIG]) == 0
    captured = capsys.readouterr()
    canonical = json.loads(captured.out)
    assert canonical["schedule"]["rounds"] == 100
    # Canonical output itself parses and validates.
    path = tmp_path / "canon.cfg"
    path.write_text(captured.out)
    assert main(["validate", "--config", str(path)]) == 0


def test_validate_rejects_bad_override():
    assert main(["validate", "--config", CONFIG, "--override", "schedule.rounds=0"]) == 1


def test_seed_flag_changes_hash_and_results(tmp_path, capsys):
    assert main(["validate", "--config", CONFIG]) == 0
    base = json.loads(capsys.readouterr().out)
    assert main(["validate", "--config", CONFIG, "--seed", "9"]) == 0
    other = json.loads(capsys.readouterr().out)
    assert base["seed"] == 42 and other["seed"] == 9


def test_join_config_mismatch_exits_3():
    import threading

    from fedmesh.config import config_hash, load_config
    from fedmesh.experiment import build_engine
    from fedmesh.transport import FederationServer, TransportError

    config = load_config(CONFIG, overrides=["transport.timeout_seconds=5"])
    server = FederationServer(build_engine(config), config_hash(config), port=0, timeout=5)
    host, port = server.address

    def serve():
        try:
            server.wait_for_clients()
        except TransportError:
            pass

    thread = threading.Thread(target=serve)
    thread.start()
    code = main(
        [
            "join", "--config", CONFIG, "--server", f"{host}:{port}", "--client-id", "0",
            "--seed", "777",  # different semantic hash than the server's
        ]
    )
    thread.join(30)
    server.close()
    assert code == 3


def test_join_network_failure_exits_2():
    # Nothing listens on this port; the CLI maps the socket error to exit 2.
    code = main(
        [
            "join", "--config", CONFIG, "--server", f"127.0.0.1:{_free_port()}", "--client-id", "0",
            "--override", "transport.timeout_seconds=2",
        ]
    )
    assert code == 2


# Budgets whose noise scale comes out 0 or infinite, and waits longer than
# select and settimeout accept: each must be a one-line config error.
OUT_OF_RANGE = [
    ("simulate", "privacy.epsilon=Infinity"),
    ("simulate", "privacy.epsilon=1e-320"),
    ("simulate", "privacy.delta=1e-320"),
    ("simulate", "privacy.clip_norm=1e308"),
    ("serve", "transport.timeout_seconds=3e6"),
    ("join", "transport.timeout_seconds=1e10"),
]


@pytest.mark.parametrize("command,override", OUT_OF_RANGE)
def test_out_of_range_settings_exit_1_in_one_line(tmp_path, command, override):
    where = {
        "simulate": ["--out", str(tmp_path / "o")],
        "serve": ["--out", str(tmp_path / "o"), "--listen", "127.0.0.1:0"],
        "join": ["--server", f"127.0.0.1:{_free_port()}", "--client-id", "0"],
    }[command]
    flags = _override_flags(["privacy.enabled=true", override])
    result = run_python(["-m", "fedmesh.cli", command, "--config", CONFIG, *where, *flags], cwd=ROOT)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: {override.split('.')[0]}")


def _inline_domain(**recipe):
    recipe = {
        "class_means": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
        "class_covariance_scale": 0.5,
        "mean_shift": [0.0, 0.0],
        "label_prior": [0.4, 0.3, 0.3],
        **recipe,
    }
    domain = {"tag": "inline", "recipe": recipe, "train_samples": 40, "eval_samples": 20, "clients": 4}
    return "domains=" + json.dumps([domain])


# Values that validate once let through to a run that crashed, froze or
# refused them (a non-finite recipe, custom weights whose total overflows,
# a CSV label column that is also a feature, non-finite floats), or met
# with a traceback (integers too large for a float or for the JSON parser).
REFUSED_BY_VALIDATE = [
    (_inline_domain(class_means=[[1e400, 0.0], [0.0, 1.0], [-1.0, 0.0]]), "domains[0].recipe.class_means"),
    (_inline_domain(class_covariance_scale=1e400), "domains[0].recipe.class_covariance_scale"),
    ('policy={"kind": "custom_weighted", "weights": {"0": 1e308, "1": 1e308, "2": 1e308, "3": 1e308}}',
     "policy.weights"),
    ('domains=[{"csv": {"path": "absent.csv", "feature_columns": ["f0", "f1"], "label_column": "f0"}, "tag": "f"}]',
     "domains[0].csv.label_column"),
    ('domains=[{"csv": {"path": "absent.csv", "feature_columns": ["a", "a"], "label_column": "label"}, "tag": "f"}]',
     "domains[0].csv.feature_columns"),
    ("policy.epsilon_cap=Infinity", "policy.epsilon_cap"),
    ("schedule.learning_rate=Infinity", "schedule.learning_rate"),
    ("schedule.learning_rate=NaN", "schedule.learning_rate"),
    ("partition.dirichlet_alpha=Infinity", "partition.dirichlet_alpha"),
    ("schedule.learning_rate=1" + "0" * 400, "schedule.learning_rate"),
    (_inline_domain(class_means=[[10**400, 0], [0, 1], [-1, 0]]), "domains[0].recipe"),
    ("seed=" + "1" * 5000, "seed"),
]


# Weights beside privacy_derived, which replaces them: a run dropped them silently.
WEIGHTS_BESIDE_DERIVED = (
    'policy={"kind":"custom_weighted","privacy_derived":true,"weights":{"0":100.0,"1":0.0,"2":0.0,"3":0.0}}',
    "policy.weights",
)


# Weights beside a kind that does not read them: a run dropped them silently.
WEIGHTS_BESIDE_SIZE_WEIGHTED = (
    'policy.weights={"0":100.0,"1":0.0,"2":0.0,"3":0.0}',
    "policy.weights",
)


@pytest.mark.parametrize(
    "override,key",
    [*REFUSED_BY_VALIDATE, WEIGHTS_BESIDE_DERIVED, WEIGHTS_BESIDE_SIZE_WEIGHTED],
    ids=[*(k for _, k in REFUSED_BY_VALIDATE), "policy.weights-privacy_derived", "policy.weights-size_weighted"],
)
def test_validate_refuses_in_one_line_what_a_run_would_refuse(capsys, override, key):
    assert main(["validate", "--config", "configs/iid_baseline.cfg", "--override", override]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"config error: {key}: ")


@pytest.mark.parametrize("count,code", [(65535, 0), (70000, 1)])
def test_tracked_indices_are_capped_at_the_wire_count(capsys, count, code):
    # A client's tracked values travel under a u16 count.
    override = "tracked_indices=" + json.dumps([0] * count)
    assert main(["validate", "--config", CONFIG, "--override", override]) == code
    if code:
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["config error: tracked_indices: must hold <= 65535 entries"]


SECURE_BASELINE = ["secure_aggregation=true", "transport.timeout_seconds=5"]
SECURE_SELECTED = FLAG_SECURE | FLAG_SELECTED


def _join_against_fake_server(params, participant_ids, coefficient=0.25, flags=SECURE_SELECTED):
    """Run ``join`` as client 0 against a server that acks HELLO, then sends
    one GLOBAL_MODEL frame with ``params`` and the given header."""
    from fedmesh.config import config_hash, load_config
    from fedmesh.transport import Frame, FrameConnection, MessageType, encode_global_model, encode_hello

    config = load_config("configs/iid_baseline.cfg", overrides=SECURE_BASELINE)
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    outcome = {}

    def fake_server():
        sock, _ = listener.accept()
        conn = FrameConnection(sock)
        try:
            hello = conn.recv()
            conn.send(Frame(MessageType.HELLO, 0, hello.client_id, encode_hello(config_hash(config), 4)))
            payload = encode_global_model(params, coefficient, flags, participant_ids)
            conn.send(Frame(MessageType.GLOBAL_MODEL, 0, hello.client_id, payload))
            outcome["reply"] = conn.recv()
        finally:
            conn.close()

    thread = threading.Thread(target=fake_server)
    thread.start()
    try:
        code = main(
            [
                "join", "--config", "configs/iid_baseline.cfg", "--server", f"{host}:{port}",
                "--client-id", "0", *_override_flags(SECURE_BASELINE),
            ]
        )
    finally:
        thread.join(30)
        listener.close()
    assert not thread.is_alive()
    assert outcome["reply"] is None  # the client hung up without answering
    return code


def test_join_exits_2_on_a_wrong_dimension_model(capsys):
    code = _join_against_fake_server(np.zeros(1), [0, 1, 2, 3])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["transport error: round 0: global model has dim 1, expected 9"]


# iid_baseline.cfg has 4 clients, all selected in round 0 with coefficient 0.25.
OWN_HEADER = "(0.25, 3, [0, 1, 2, 3])"


def _refusal(header):
    return (
        "transport error: round 0: GLOBAL_MODEL (coefficient, flags, participants) "
        f"{header} differs from this config's {OWN_HEADER}"
    )


@pytest.mark.parametrize(
    "participant_ids",
    [[0, 1, 99], [1, 0, 2], [0, 0, 1], [1, 2, 3]],
    ids=["unknown", "unsorted", "duplicate", "without_self"],
)
def test_join_exits_2_on_a_bad_participant_list(capsys, participant_ids):
    code = _join_against_fake_server(np.zeros(9), participant_ids)
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == [_refusal(f"(0.25, 3, {participant_ids})")]


@pytest.mark.parametrize(
    "coefficient, flags, participant_ids",
    [
        (0.25, FLAG_SELECTED, [0, 1, 2, 3]),
        (0.25, SECURE_SELECTED, [0, 1, 2]),
        (0.5, SECURE_SELECTED, [0, 1, 2, 3]),
    ],
    ids=["secure_flag_cleared", "participant_left_out", "wrong_coefficient"],
)
def test_join_refuses_a_header_its_config_does_not_derive(
    capsys, coefficient, flags, participant_ids
):
    # A secure client must never send its plain delta, nor mask against a
    # participant list or coefficient other than its own config's.
    code = _join_against_fake_server(np.zeros(9), participant_ids, coefficient, flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [_refusal(f"({coefficient}, {flags}, {participant_ids})")]


@pytest.mark.parametrize("port", [70000, -5])
@pytest.mark.parametrize("command", ["serve", "join"])
def test_out_of_range_port_exits_1_in_one_line(tmp_path, capsys, command, port):
    flag = "--listen" if command == "serve" else "--server"
    where = ["--out", str(tmp_path / "o")] if command == "serve" else ["--client-id", "0"]
    assert main([command, "--config", CONFIG, flag, f"127.0.0.1:{port}", *where]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: transport.port: must lie in [0, 65536)"]


@pytest.mark.parametrize(
    "flags",
    [["validate", "--seed", "3"], ["join", "--server", "127.0.0.1:7700", "--client-id", "0"]],
    ids=["seed", "address"],
)
def test_non_object_config_exits_1_in_one_line(tmp_path, capsys, flags):
    path = tmp_path / "list.cfg"
    path.write_text("[]")
    assert main([flags[0], "--config", str(path), *flags[1:]]) == 1
    assert capsys.readouterr().err.splitlines() == ["config error: config: expected an object"]


@pytest.mark.parametrize("client_id", [99, -1])
def test_join_unknown_client_id_exits_1_in_one_line(capsys, client_id):
    args = ["join", "--config", CONFIG, "--server", f"127.0.0.1:{_free_port()}"]
    assert main([*args, "--client-id", str(client_id)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("config error: --client-id: client id")


def test_baseline_writes_metrics(tmp_path):
    out = tmp_path / "base"
    code = main(["baseline", "--config", "configs/iid_baseline.cfg", "--out", str(out), *FAST])
    assert code == 0
    rows = _read_csv(out / "baseline_metrics.csv")
    assert rows[0] == ["round", "accuracy", "precision", "recall", "f1"]
    assert len(rows) == 1 + 4


def test_baseline_matches_single_client_federation(tmp_path):
    overrides = [
        "--override", "schedule.rounds=6",
        "--override", "privacy.enabled=false",
        "--override", "domains.0.clients=1",
    ]
    out_fed = tmp_path / "fed"
    out_base = tmp_path / "base"
    assert main(["simulate", "--config", "configs/iid_baseline.cfg", "--out", str(out_fed), *overrides]) == 0
    assert main(["baseline", "--config", "configs/iid_baseline.cfg", "--out", str(out_base), *overrides]) == 0
    fed = _read_csv(out_fed / "metrics.csv")
    base = _read_csv(out_base / "baseline_metrics.csv")
    assert fed[1:] == base[1:]


# sha256 of baseline_metrics.csv at each bundled config's defaults.  The file
# holds only count-based metrics, so last-bit BLAS differences do not move it.
BASELINE_METRICS_SHA256 = {
    "configs/three_domains.cfg": "eba8572f60620f6fb7a86696c7170cb7dfb97eca9643e1d37d0833fb41aef913",
    "configs/iid_baseline.cfg": "67ae4844d70f4bbb5c37a6f5aa9f3c86134da2a548c4033d614b1ff7bff21a7d",
}


def _baseline_metrics_sha256(out, config, *args):
    assert main(["baseline", "--config", config, "--out", str(out), *args]) == 0
    return hashlib.sha256((out / "baseline_metrics.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("config", sorted(BASELINE_METRICS_SHA256))
def test_baseline_metrics_bytes_are_pinned(tmp_path, config):
    assert _baseline_metrics_sha256(tmp_path / "base", config) == BASELINE_METRICS_SHA256[config]


FEDERATION_ONLY = {
    "privacy": ["privacy.enabled=true", 'privacy.client_overrides={"1":{"epsilon":0.5}}'],
    "secure": ["secure_aggregation=true"],
    "participation": ["schedule.participation_fraction=0.5"],
    "privacy_derived": ['policy={"kind":"custom_weighted","privacy_derived":true}'],
}


@pytest.mark.parametrize("name", sorted(FEDERATION_ONLY))
def test_baseline_ignores_federation_only_settings(tmp_path, name):
    # The pooled baseline trains one client with no noise, no masking and
    # every round, so these settings leave its bytes alone.
    config = "configs/iid_baseline.cfg"
    digest = _baseline_metrics_sha256(tmp_path / "base", config, *_override_flags(FEDERATION_ONLY[name]))
    assert digest == BASELINE_METRICS_SHA256[config]


# sha256 of metrics.csv and clients.csv of a 30-round privacy-derived simulate
# of iid_baseline.cfg, where client 1's epsilon of 0.5 shrinks its weight.
PRIVACY_DERIVED = [
    'policy={"kind":"custom_weighted","privacy_derived":true}',
    "privacy.enabled=true",
    'privacy.client_overrides={"1":{"epsilon":0.5}}',
]
PRIVACY_DERIVED_SHA256 = {
    "as_is": (
        [],
        "cfe7f324730f76b3142a76553d8fbb94c0605836ed1c8dad831185ee49bb34da",
        "7003d32f30cac6963a217a1b963e7444fba22e92b1849139e6c48a4a40a4f491",
    ),
    "half_secure": (
        ["schedule.participation_fraction=0.5", "secure_aggregation=true"],
        "7fb732629e970b8097e920bbe8bdbc7e03070762603d15b594adcc8e62e2b1a2",
        "4f5e0bb2cae49d913d443856037af00d6d13516402321621e6884493cb80382c",
    ),
}


@pytest.mark.parametrize("name", sorted(PRIVACY_DERIVED_SHA256))
def test_privacy_derived_simulate_bytes_are_pinned(tmp_path, name):
    extra, metrics_sha, clients_sha = PRIVACY_DERIVED_SHA256[name]
    flags = _override_flags([*PRIVACY_DERIVED, *extra])
    assert main(["simulate", "--config", "configs/iid_baseline.cfg", "--out", str(tmp_path), *flags]) == 0
    digests = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("metrics.csv", "clients.csv")]
    assert digests == [metrics_sha, clients_sha]


def test_dp_accuracy_not_better_than_plain(tmp_path):
    # Noise can only hurt or tie on the bundled config (checked across seeds).
    for i, seed in enumerate(["1000", "1001", "1002", "1003", "1004"]):
        out_dp = tmp_path / f"dp{i}"
        out_plain = tmp_path / f"plain{i}"
        fast = ["--override", "schedule.rounds=40"]
        assert main(["simulate", "--config", CONFIG, "--out", str(out_dp), "--seed", seed, *fast]) == 0
        assert (
            main(
                [
                    "simulate", "--config", CONFIG, "--out", str(out_plain), "--seed", seed,
                    "--override", "privacy.enabled=false", *fast,
                ]
            )
            == 0
        )
        dp_acc = float(_read_csv(out_dp / "metrics.csv")[-1][1])
        plain_acc = float(_read_csv(out_plain / "metrics.csv")[-1][1])
        assert dp_acc <= plain_acc + 0.05
