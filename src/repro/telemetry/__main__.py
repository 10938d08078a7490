"""Command-line entry points for the telemetry subsystem.

``python -m repro.telemetry report <dir-or-files...>`` merges exported
``*.metrics.json`` documents and prints the run summary (traffic totals,
hot queues, arbitration fairness).

``python -m repro.telemetry trace`` runs one fully traced simulation of
a chosen configuration and exports the VCD waveform, Chrome trace and
metrics document — the quickest way to get a waveform into GTKWave
without going through ``repro.experiments``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.instrument import ObservedOmegaNetworkSimulator
from repro.network.simulator import NetworkConfig, Protocol
from repro.telemetry.report import (
    merge_metrics_documents,
    metrics_files,
    render_report,
)
from repro.telemetry.session import TraceSession

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry",
        description="Telemetry reports and one-off traced simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="merge metrics documents and print the run summary"
    )
    report.add_argument(
        "paths",
        nargs="+",
        help="metrics .json files, or directories containing them",
    )
    report.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many hot queues to list (default 10)",
    )

    trace = sub.add_parser(
        "trace", help="run one traced simulation and export its artifacts"
    )
    trace.add_argument("--buffer", default="DAMQ", help="buffer kind")
    trace.add_argument(
        "--protocol", default="blocking", choices=["blocking", "discarding"]
    )
    trace.add_argument("--load", type=float, default=0.5)
    trace.add_argument("--ports", type=int, default=16)
    trace.add_argument("--radix", type=int, default=4)
    trace.add_argument("--slots", type=int, default=4)
    trace.add_argument("--seed", type=int, default=1988)
    trace.add_argument("--warmup", type=int, default=100)
    trace.add_argument("--measure", type=int, default=400)
    trace.add_argument(
        "--out", default="telemetry", help="export directory (default ./telemetry)"
    )
    trace.add_argument(
        "--metrics-only",
        action="store_true",
        help="skip the event ring (no VCD/Chrome trace, metrics only)",
    )
    return parser


def _run_report(args: argparse.Namespace) -> int:
    paths: list[Path] = []
    for target in args.paths:
        paths.extend(metrics_files(target))
    registry, info = merge_metrics_documents(paths)
    sys.stdout.write(render_report(registry, info, top=args.top))
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    config = NetworkConfig(
        num_ports=args.ports,
        radix=args.radix,
        buffer_kind=args.buffer,
        slots_per_buffer=args.slots,
        protocol=Protocol(args.protocol),
        offered_load=args.load,
        seed=args.seed,
    )
    session = TraceSession(capacity=0) if args.metrics_only else TraceSession()
    simulator = ObservedOmegaNetworkSimulator(config, [session])
    result = simulator.run(args.warmup, args.measure)
    written = session.export(args.out, simulator)
    print(
        f"delivered={result.delivered_throughput:.3f} "
        f"latency={result.average_latency:.2f} cycles "
        f"(events emitted: {session.ring.emitted}, "
        f"dropped: {session.ring.dropped})"
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.telemetry`` / ``repro-telemetry``."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _run_report(args)
        return _run_trace(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
