"""Experiment runner: simulate / serve / join / baseline / validate.

Exit codes: 0 success, 1 configuration error (the message names the
offending key), 2 runtime abort (diverged or failed round, lost client),
3 config-hash mismatch between server and client, 130 interrupted (Ctrl-C).

Set ``FEDMESH_LOG`` (DEBUG/INFO/WARNING/ERROR) to control log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from datetime import datetime, timezone

from . import outputs
from .config import ConfigError, ExperimentConfig, canonical_text, config_hash, load_config
from .experiment import build_baseline, build_engine
from .federation import FederationAbort
from .transport import FederationClient, FederationServer, TransportError

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    level = os.environ.get("FEDMESH_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )


def _address(text: str) -> dict:
    """The ``transport`` keys an ``ADDR:PORT`` argument sets; an empty ADDR keeps the config's.

    An IPv6 ADDR goes in brackets, as in ``[::1]:7700``.
    """
    if text.startswith("["):
        host, bracket, rest = text[1:].partition("]")
        if not bracket or rest[:1] not in ("", ":"):
            raise ConfigError(f"bad address {text!r}: expected [ADDR]:PORT")
        sep, port = rest[:1], rest[1:]
    else:
        host, sep, port = text.rpartition(":")
        if not sep:
            host = text
    keys = {"host": host} if host else {}
    if sep:
        try:
            keys["port"] = int(port)
        except ValueError:
            raise ConfigError(f"bad address {text!r}: expected ADDR:PORT") from None
    return keys


def _load(args: argparse.Namespace) -> ExperimentConfig:
    return load_config(
        args.config,
        overrides=args.override,
        seed=args.seed,
        output_dir=getattr(args, "out", None),
        transport=_address(getattr(args, "address", "")),
    )


def _add_common(parser: argparse.ArgumentParser, out: bool = True) -> None:
    parser.add_argument("--config", required=True, help="experiment config file (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dotted path; repeatable)",
    )
    if out:
        parser.add_argument("--out", default=None, help="output directory")
        parser.add_argument(
            "--force", action="store_true", help="allow writing into a non-empty output directory"
        )


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    out_dir = outputs.prepare_output_dir(config.output_dir, args.force)
    started = datetime.now(timezone.utc)
    engine = build_engine(config)
    reports = engine.run()
    outputs.write_run_artifacts(out_dir, config, reports, started)
    final = reports[-1]
    print(
        f"simulate: {config.schedule.rounds} rounds, final accuracy "
        f"{final.global_metrics.accuracy:.4f}, artifacts in {out_dir}"
    )
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    config = _load(args)
    out_dir = outputs.prepare_output_dir(config.output_dir, args.force)
    started = datetime.now(timezone.utc)
    reports = build_baseline(config).run()
    rows = [(r.round_index, r.global_metrics) for r in reports]
    outputs.write_baseline_metrics(out_dir / outputs.BASELINE_METRICS, rows)
    outputs.write_manifest(out_dir, config, [outputs.BASELINE_METRICS], started)
    print(
        f"baseline: {config.schedule.rounds} rounds on pooled data, final accuracy "
        f"{rows[-1][1].accuracy:.4f}, artifacts in {out_dir}"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load(args)
    sys.stdout.write(canonical_text(config))
    print(f"# config ok: hash {config_hash(config).hex()}", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    config = _load(args)
    out_dir = outputs.prepare_output_dir(config.output_dir, args.force)
    started = datetime.now(timezone.utc)
    engine = build_engine(config)
    server = FederationServer(
        engine,
        config_hash(config),
        host=config.transport.host,
        port=config.transport.port,
        timeout=config.transport.timeout_seconds,
    )
    try:
        log.info("listening on %s:%d", *server.address)
        server.wait_for_clients()
        server.run()
    finally:
        server.close()
    outputs.write_run_artifacts(out_dir, config, engine.reports, started)
    final = engine.reports[-1]
    print(
        f"serve: {config.schedule.rounds} rounds with {len(engine.clients)} clients, "
        f"final accuracy {final.global_metrics.accuracy:.4f}, artifacts in {out_dir}"
    )
    return 0


def cmd_join(args: argparse.Namespace) -> int:
    config = _load(args)
    engine = build_engine(config)
    try:
        client = FederationClient(
            engine,
            args.client_id,
            config_hash(config),
            (config.transport.host, config.transport.port),
            timeout=config.transport.timeout_seconds,
        )
    except ValueError as exc:
        raise ConfigError(f"--client-id: {exc}") from None
    client.run()
    print(f"join: client {args.client_id} completed the run")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedmesh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run all rounds in-process and emit CSV traces")
    _add_common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("baseline", help="train the same model on pooled data")
    _add_common(p)
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("validate", help="check a config and print its canonical form")
    _add_common(p, out=False)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("serve", help="run the central server over TCP")
    _add_common(p)
    p.add_argument(
        "--listen", dest="address", default="", metavar="ADDR:PORT", help="listen address"
    )
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("join", help="run one client against a server")
    _add_common(p, out=False)
    p.add_argument(
        "--server", dest="address", required=True, metavar="ADDR:PORT", help="server address"
    )
    p.add_argument("--client-id", required=True, type=int, help="this client's id")
    p.set_defaults(handler=cmd_join)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FederationAbort as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 2
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
