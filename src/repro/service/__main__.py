"""Command-line interface: ``python -m repro.service`` / ``repro-service``.

Subcommands::

    serve    run the job service in the foreground
    submit   submit one job to a running service and print the answer

Load testing lives in the benchmark suite (``benchmarks/suite``, the
``service-zipf`` workload).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.service.chaos import ChaosPolicy
from repro.service.client import ServiceClient
from repro.service.server import ServiceConfig, serve

__all__ = ["main"]


def _chaos_from_args(args: argparse.Namespace) -> ChaosPolicy | None:
    if not args.chaos_kill:
        return None
    return ChaosPolicy(seed=args.chaos_seed, kill_probability=args.chaos_kill)


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        data_dir=args.data_dir,
        checkpoint_every=args.checkpoint_every,
        task_deadline=args.task_deadline,
        chaos=_chaos_from_args(args),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="fault-tolerant simulation job service",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve_cmd = commands.add_parser("serve", help="run the job service")
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8023, help="0 = pick a free port"
    )
    serve_cmd.add_argument("--workers", type=int, default=2)
    serve_cmd.add_argument("--queue-limit", type=int, default=8)
    serve_cmd.add_argument(
        "--data-dir", default=None, help="caches + checkpoints (default: temp)"
    )
    serve_cmd.add_argument("--checkpoint-every", type=int, default=500)
    serve_cmd.add_argument("--task-deadline", type=float, default=120.0)
    serve_cmd.add_argument(
        "--port-file",
        default=None,
        help="write the bound port here (for --port 0 discovery)",
    )
    serve_cmd.add_argument(
        "--chaos-kill",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a task attempt's worker is killed mid-run",
    )
    serve_cmd.add_argument(
        "--chaos-seed",
        type=int,
        default=1988,
        help="seed of the chaos draws (default: 1988)",
    )

    submit_cmd = commands.add_parser(
        "submit", help="submit one job and print the response"
    )
    submit_cmd.add_argument("experiment")
    submit_cmd.add_argument("--url", default="http://127.0.0.1:8023")
    submit_cmd.add_argument("--seed", type=int, default=1988)
    submit_cmd.add_argument(
        "--full", action="store_true", help="full fidelity (default: quick)"
    )
    submit_cmd.add_argument(
        "--backend",
        choices=["reference", "numpy"],
        default=None,
        help="force the job's simulation backend (results are "
        "byte-identical; numpy vectorizes the simulation grids)",
    )
    submit_cmd.add_argument(
        "--no-wait",
        action="store_true",
        help="return the job id immediately instead of the result",
    )
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    serve(_service_config(args), port_file=args.port_file)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    try:
        status, document = client.submit(
            args.experiment,
            quick=not args.full,
            seed=args.seed,
            wait=not args.no_wait,
            backend=args.backend,
        )
    except OSError as error:
        print(
            f"error: no service reachable at {args.url} ({error}); "
            "start one with `python -m repro.service serve`",
            file=sys.stderr,
        )
        return 2
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0 if status in (200, 202) else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
