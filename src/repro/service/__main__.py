"""Command-line interface: ``python -m repro.service`` / ``repro-service``.

Subcommands::

    serve    run the job service in the foreground
    submit   submit one job to a running service and print the answer
    bench    drive a Zipf workload (against a URL, or a self-hosted
             server) and print/write the load report
    predict  print the analytic degraded-mode prediction for a spec
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.errors import ReproError
from repro.service.chaos import ChaosPolicy
from repro.service.client import ServiceClient, run_bench
from repro.service.jobs import JobSpec, analytic_prediction
from repro.service.server import ServiceConfig, serve, serve_in_thread

__all__ = ["main"]


def _chaos_from_args(args: argparse.Namespace) -> ChaosPolicy | None:
    if not args.chaos_kill:
        return None
    return ChaosPolicy(seed=args.chaos_seed, kill_probability=args.chaos_kill)


def _add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos-kill",
        type=float,
        default=0.0,
        metavar="P",
        help="probability a task attempt's worker is killed mid-run",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=1988,
        help="seed of the chaos draws (default: 1988)",
    )


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
    _add_chaos_arguments(serve_cmd)

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

    bench_cmd = commands.add_parser(
        "bench", help="drive a Zipf workload and report service behaviour"
    )
    bench_cmd.add_argument(
        "--url",
        default=None,
        help="target service (default: self-host a fresh one)",
    )
    bench_cmd.add_argument("--requests", type=int, default=60)
    bench_cmd.add_argument("--clients", type=int, default=4)
    bench_cmd.add_argument(
        "--experiments",
        default="table1,figure1",
        help="comma-separated experiment catalog",
    )
    bench_cmd.add_argument(
        "--seeds", default="1988,7,42", help="comma-separated seed catalog"
    )
    bench_cmd.add_argument("--zipf", type=float, default=1.1)
    bench_cmd.add_argument("--seed", type=int, default=1988)
    bench_cmd.add_argument("--workers", type=int, default=2)
    bench_cmd.add_argument("--queue-limit", type=int, default=8)
    bench_cmd.add_argument(
        "--kill-workers",
        type=int,
        default=0,
        metavar="N",
        help="hard-kill N busy workers during the run (recovery measure)",
    )
    bench_cmd.add_argument(
        "--output", default=None, help="also write the report JSON here"
    )
    _add_chaos_arguments(bench_cmd)

    predict_cmd = commands.add_parser(
        "predict", help="print the analytic degraded-mode prediction"
    )
    predict_cmd.add_argument("experiment")
    predict_cmd.add_argument("--seed", type=int, default=1988)
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


def _cmd_bench(args: argparse.Namespace) -> int:
    experiments = [e for e in args.experiments.split(",") if e]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    handle = None
    url = args.url
    chaos = _chaos_from_args(args)
    if url is None:
        handle = serve_in_thread(
            ServiceConfig(
                port=0,
                workers=args.workers,
                queue_limit=args.queue_limit,
                chaos=chaos,
            )
        )
        url = handle.url
    try:
        report: dict[str, Any] = run_bench(
            url,
            requests=args.requests,
            clients=args.clients,
            experiments=experiments,
            seeds=seeds,
            zipf_exponent=args.zipf,
            seed=args.seed,
            kill_workers=args.kill_workers,
        )
    finally:
        if handle is not None:
            handle.close()
    report["chaos"] = {
        "enabled": chaos is not None and chaos.enabled,
        "kill_probability": chaos.kill_probability if chaos else 0.0,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.output:
        with open(args.output, "w") as sink:
            sink.write(text + "\n")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    spec = JobSpec.from_payload({"experiment": args.experiment, "seed": args.seed})
    print(json.dumps(analytic_prediction(spec), indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "bench": _cmd_bench,
        "predict": _cmd_predict,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
