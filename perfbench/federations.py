"""Run one whole federation the way ``fedmesh simulate`` or ``serve`` does.

Each function performs the command's steps in its order (config load,
output directory, engine, rounds, artifacts) and times them from the
outside.  The in-process federation is stepped with the engine's public
``run_round``; the socket federation runs the real server and clients
over loopback TCP, the clients as threads of this process.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from fedmesh import outputs
from fedmesh.config import config_hash, load_config
from fedmesh.experiment import build_engine
from fedmesh.transport import FederationClient, FederationServer

CLIENT_JOIN_SECONDS = 60.0


@dataclass
class Federation:
    setup_s: float
    total_s: float
    round_s: list[float]
    engine: object  # the server-side FederationEngine
    out_dir: Path
    samples: int  # shard size x local epochs, over rounds and participants
    artifact_bytes: int
    clients: int = 0  # client threads (socket federations only)
    round_start: float = 0.0  # perf_counter at the start of the rounds (socket only)


def _write_artifacts(config, engine, out, started, tracer) -> None:
    _call(
        tracer, "outputs.write_run_artifacts",
        outputs.write_run_artifacts, out, config, engine.reports, started,
    )


def _tally(config, engine, out) -> tuple[int, int]:
    """(samples trained, artifact bytes), counted after the timed region."""
    samples = config.schedule.local_epochs * sum(
        record.sample_count
        for report in engine.reports
        for record in report.clients
        if record.participated
    )
    return samples, sum(path.stat().st_size for path in out.iterdir())


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


def set_up(config_path: Path, out_dir: Path, tracer=None):
    """Config load until the engine is ready: ``simulate``'s set-up."""
    start = perf_counter()
    config = _call(tracer, "config.load_config", load_config, str(config_path), output_dir=str(out_dir))
    out = outputs.prepare_output_dir(config.output_dir)
    started = datetime.now(timezone.utc)
    engine = _call(tracer, "experiment.build_engine", build_engine, config)
    return perf_counter() - start, start, config, out, started, engine


def simulate(config_path: Path, out_dir: Path, tracer=None) -> Federation:
    setup_s, start, config, out, started, engine = set_up(config_path, out_dir, tracer)
    round_s = []
    for t in range(config.schedule.rounds):
        if tracer is not None:
            tracer.round = t
        begin = perf_counter()
        engine.run_round()
        round_s.append(perf_counter() - begin)
    _write_artifacts(config, engine, out, started, tracer)
    total_s = perf_counter() - start
    return Federation(setup_s, total_s, round_s, engine, out, *_tally(config, engine, out))


def reference_params(config_path: Path):
    """Final parameters of a plain in-process run of the config."""
    engine = build_engine(load_config(str(config_path)))
    engine.run()
    return engine.params


def _join(config_path: Path, client_id: int, address, errors: list, tracer) -> None:
    try:
        config = _call(tracer, "config.load_config", load_config, str(config_path))
        engine = _call(tracer, "experiment.build_engine", build_engine, config)
        FederationClient(
            engine, client_id, config_hash(config), address,
            timeout=config.transport.timeout_seconds,
        ).run()
    except Exception as exc:  # reported by the caller as a failed federation
        errors.append(f"client {client_id}: {exc!r}")


def serve(config_path: Path, out_dir: Path, tracer=None) -> Federation:
    """``fedmesh serve`` plus its clients; set-up ends when every HELLO is done."""
    _, setup_start, config, out, started, engine = set_up(config_path, out_dir, tracer)
    server = FederationServer(
        engine,
        config_hash(config),
        host=config.transport.host,
        port=config.transport.port,
        timeout=config.transport.timeout_seconds,
    )
    # Round ends are stamped on this engine instance only; module code stays as is.
    stamps: list[float] = []
    complete_round = engine.complete_round

    def stamped(inputs):
        report = complete_round(inputs)
        stamps.append(perf_counter())
        if tracer is not None:
            tracer.round = len(stamps)
        return report

    engine.complete_round = stamped
    errors: list[str] = []
    threads = [
        threading.Thread(
            target=_join,
            args=(config_path, cid, server.address, errors, tracer),
            name=f"bench-client-{cid}",
            daemon=True,
        )
        for cid in sorted(engine.clients)
    ]
    try:
        for thread in threads:
            thread.start()
        _call(tracer, "transport.handshake", server.wait_for_clients)
        setup_s = perf_counter() - setup_start
        run_start = perf_counter()
        server.run()
    finally:
        # Closing the server's sockets also ends any client still reading.
        server.close()
        for thread in threads:
            thread.join(CLIENT_JOIN_SECONDS)
    if errors or any(thread.is_alive() for thread in threads):
        raise RuntimeError("; ".join(errors) or "a client thread did not finish")
    _write_artifacts(config, engine, out, started, tracer)
    total_s = perf_counter() - setup_start
    ends = [run_start] + stamps
    round_s = [b - a for a, b in zip(ends, ends[1:])]
    samples, size = _tally(config, engine, out)
    return Federation(
        setup_s, total_s, round_s, engine, out, samples, size, len(threads), run_start
    )
