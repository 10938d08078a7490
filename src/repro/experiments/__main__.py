"""Command-line entry point: ``python -m repro.experiments``.

Examples
--------
Run everything at full fidelity (slow, tens of minutes)::

    python -m repro.experiments

Run selected experiments quickly::

    python -m repro.experiments table2 table4 --quick
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.cache.store import DEFAULT_CACHE_DIR, ResultCache
from repro.core.registry import buffer_kinds
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.switch.scheduler import scheduler_kinds


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the requested experiments, print reports."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of Tamir & Frazier "
        "(ISCA 1988).",
        epilog=f"registered buffer architectures: "
        f"{', '.join(buffer_kinds())}; "
        f"registered schedulers: {', '.join(scheduler_kinds())}",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (default: all of {sorted(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened simulation windows (noisier, much faster)",
    )
    parser.add_argument(
        "--seed", type=int, default=1988, help="root random seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes of the pool that serves each experiment's "
        "simulation grids (0 = one per CPU; results are identical for "
        "any value)",
    )
    parser.add_argument(
        "--backend",
        choices=["reference", "numpy"],
        default=None,
        help="force the simulation backend for every grid (results are "
        "byte-identical; numpy fuses each grid into vectorized batch "
        "kernels).  Unset, numpy applies as a soft preference that "
        "falls back to the reference simulator where numpy is not exact",
    )
    parser.add_argument(
        "--csv-dir",
        metavar="DIR",
        default=None,
        help="also write each experiment's tables as CSV files into DIR",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="memoize per-config simulations in a content-addressed store "
        "(--no-cache disables); a warm re-run performs zero simulations "
        "and prints byte-identical reports",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=DEFAULT_CACHE_DIR,
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="write a resumable checkpoint every N simulated cycles so an "
        "interrupted simulation continues bit-identically "
        "(checkpoints live under CACHE_DIR/checkpoints)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="run every simulation with full event tracing and export VCD "
        "waveforms, Chrome traces and metrics into TRACE_DIR "
        "(results stay bit-identical to an untraced run)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="like --trace but counters only: no event ring, no waveforms, "
        "just the merged metrics documents (lower overhead)",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default="telemetry",
        help="export directory for --trace/--metrics artifacts "
        "(default: ./telemetry)",
    )
    args = parser.parse_args(argv)
    if args.trace or args.metrics:
        # Environment, not a parameter, so the parallel workers of
        # parallel_simulate inherit it exactly like REPRO_SANITIZE.
        env_name = "REPRO_TRACE" if args.trace else "REPRO_METRICS"
        os.environ[env_name] = args.trace_dir
    cache = ResultCache(args.cache_dir) if args.cache else None
    checkpoint_dir = (
        Path(args.cache_dir) / "checkpoints"
        if args.checkpoint_every is not None
        else None
    )
    requested = args.experiments or list(EXPERIMENTS)
    for experiment_id in requested:
        started = time.perf_counter()  # repro: noqa=REP007 - CLI timing
        result = run_experiment(
            experiment_id,
            quick=args.quick,
            seed=args.seed,
            jobs=args.jobs,
            cache=cache,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            backend=args.backend,
        )
        elapsed = time.perf_counter() - started  # repro: noqa=REP007 - CLI timing
        print(result.render())
        if args.csv_dir is not None:
            from repro.experiments.export import export_result

            for path in export_result(result, args.csv_dir):
                print(f"wrote {path}")
        print(f"\n({experiment_id} completed in {elapsed:.1f}s)\n")
        print("=" * 72)
    if args.trace or args.metrics:
        from repro.telemetry.report import (
            merge_metrics_documents,
            metrics_files,
            render_report,
        )

        paths = metrics_files(args.trace_dir)
        if paths:
            registry, info = merge_metrics_documents(paths)
            print(render_report(registry, info))
            print(f"telemetry artifacts in {args.trace_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
