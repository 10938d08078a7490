"""Command-line entry points for the kernel backends.

Examples::

    # Lockstep per-cycle equivalence check of the CI smoke grid:
    python -m repro.kernel diff --ci

    # Diff one configuration, dumping a replayable counterexample on
    # divergence:
    python -m repro.kernel diff --kind DAMQ --protocol blocking \\
        --arbiter smart --load 0.7 --counterexample diverged.json

    # Benchmark both backends on the quick grids and enforce the CI
    # floor:
    python -m repro.kernel bench --quick -o benchmarks/BENCH_9_quick.json \\
        --min-speedup 5.0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.report import QUICK_MEASURE, QUICK_WARMUP
from repro.kernel.bench import run_kernel_bench, write_kernel_bench
from repro.kernel.differential import diff_kernels
from repro.network.simulator import NetworkConfig
from repro.switch.flow_control import Protocol

#: The CI smoke grid: one fault-free configuration per buffer kind,
#: covering both flow-control protocols and both arbiter priorities,
#: plus a saturated hot-spot FIFO: there a downstream FIFO receives
#: packets out of creation order, so its read order must follow arrival,
#: not packet id.
CI_GRID = (
    ("FIFO", Protocol.BLOCKING, "smart", "uniform", 0.5),
    ("DAMQ", Protocol.BLOCKING, "dumb", "uniform", 0.7),
    ("SAMQ", Protocol.DISCARDING, "smart", "uniform", 0.5),
    ("SAFC", Protocol.DISCARDING, "dumb", "uniform", 0.5),
    ("FIFO", Protocol.BLOCKING, "smart", "hotspot", 0.9),
)


def _diff_main(args: argparse.Namespace) -> int:
    if args.ci:
        configs = [
            NetworkConfig(
                buffer_kind=kind,
                slots_per_buffer=4,
                protocol=protocol,
                arbiter_kind=arbiter,
                traffic_kind=traffic,
                offered_load=load,
                seed=args.seed,
            )
            for kind, protocol, arbiter, traffic, load in CI_GRID
        ]
    else:
        configs = [
            NetworkConfig(
                buffer_kind=args.kind,
                slots_per_buffer=args.slots,
                protocol=Protocol.from_name(args.protocol),
                arbiter_kind=args.arbiter,
                traffic_kind=args.traffic,
                offered_load=args.load,
                seed=args.seed,
            )
        ]
    failures = 0
    for config in configs:
        report = diff_kernels(
            config,
            warmup_cycles=args.warmup,
            measure_cycles=args.measure,
            compare_every=args.every,
        )
        print(report.describe())
        if report.ok:
            continue
        failures += 1
        if report.counterexample is not None and args.counterexample:
            path = Path(args.counterexample)
            path.write_text(
                json.dumps(
                    report.counterexample.to_dict(), indent=2, sort_keys=True
                )
                + "\n"
            )
            print(f"  counterexample written to {path}")
    if failures:
        print(
            f"{failures}/{len(configs)} configurations diverged",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(configs)} configurations equivalent")
    return 0


def _bench_main(args: argparse.Namespace) -> int:
    document = run_kernel_bench(
        quick=args.quick, seed=args.seed, repeats=args.repeats
    )
    aggregate = document["aggregate"]
    print(
        f"AGGREGATE: reference {aggregate['reference_wall_s']:.2f}s  "
        f"numpy {aggregate['numpy_wall_s']:.2f}s  "
        f"speedup {aggregate['speedup']:.2f}x  "
        f"({aggregate['sims']} sims, {aggregate['cycles']} cycles/backend)"
    )
    if args.output:
        path = write_kernel_bench(document, args.output)
        print(f"benchmark written to {path}")
    if args.min_speedup is not None and aggregate["speedup"] < args.min_speedup:
        print(
            f"SPEEDUP FLOOR MISSED: {aggregate['speedup']:.2f}x < "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kernel",
        description="Differential testing and benchmarking of the "
        "simulation backends.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    diff = commands.add_parser(
        "diff",
        help="lockstep per-cycle state comparison of both backends",
    )
    diff.add_argument(
        "--ci",
        action="store_true",
        help="run the CI smoke grid (one config per buffer kind, both "
        "protocols and both arbiter priorities covered, plus a "
        "saturated hot-spot FIFO)",
    )
    diff.add_argument("--kind", default="DAMQ")
    diff.add_argument("--slots", type=int, default=4)
    diff.add_argument(
        "--protocol", default="blocking", choices=["blocking", "discarding"]
    )
    diff.add_argument("--arbiter", default="smart")
    diff.add_argument("--traffic", default="uniform")
    diff.add_argument("--load", type=float, default=0.5)
    diff.add_argument("--seed", type=int, default=1988)
    diff.add_argument("--warmup", type=int, default=QUICK_WARMUP)
    diff.add_argument("--measure", type=int, default=QUICK_MEASURE)
    diff.add_argument(
        "--every",
        type=int,
        default=1,
        metavar="N",
        help="compare digests every N cycles (default: every cycle)",
    )
    diff.add_argument(
        "--counterexample",
        metavar="PATH",
        help="on divergence, write the replayable counterexample here",
    )
    diff.set_defaults(entry=_diff_main)

    bench = commands.add_parser(
        "bench",
        help="benchmark reference vs numpy on the figure3/table3 grids",
    )
    bench.add_argument(
        "--quick",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="quick windows and loads (default) or the full sweeps",
    )
    bench.add_argument("--seed", type=int, default=1988)
    bench.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="take the best of this many timing passes per backend",
    )
    bench.add_argument("-o", "--output", metavar="PATH")
    bench.add_argument(
        "--min-speedup",
        type=float,
        metavar="X",
        help="exit 1 unless the aggregate numpy speedup reaches X",
    )
    bench.set_defaults(entry=_bench_main)

    args = parser.parse_args(argv)
    result: int = args.entry(args)
    return result


if __name__ == "__main__":
    sys.exit(main())
