"""Extension — the architecture zoo head-to-head (``ext-arch``).

The paper's DAMQ line continued for decades; :mod:`repro.arch` adds two
of its successors — the reserved-slot DAMQ (arXiv 0910.1852) and the
crosspoint-queued switch (arXiv 1403.2098) — plus distributed
schedulers (arXiv 1112.4214 lineage).  This experiment benchmarks all
six buffer architectures head-to-head at a matched total buffer budget
under uniform and hot-spot traffic, and compares the scheduling
disciplines on the architectures that support them.

The headline is *where DAMQ's dynamic sharing loses*: under hot-spot
traffic a fully shared pool fills up with packets for the hot output,
so the cold outputs starve behind them.  The per-output reservation
(DAMQ-RSV), the static partitions (SAMQ/SAFC) and the dedicated
crosspoints (CQ) all contain the hot flow; plain DAMQ and FIFO do not.

``python -m repro.experiments.ext_arch --out benchmarks/BENCH_10.json``
writes the committed benchmark document; the results are deterministic,
so regenerating it is byte-identical for a given seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.experiments.report import ExperimentResult
from repro.experiments.runner import run_experiment
from repro.network.simulator import NetworkConfig
from repro.perf.parallel import parallel_simulate
from repro.switch.flow_control import Protocol
from repro.utils.tables import TextTable, format_value

__all__ = ["benchmark_document", "main", "run"]

#: All six architectures at a matched budget: the paper's four plus the
#: ``repro.arch`` zoo, each with its natural scheduler.
ARCH_KINDS = ("FIFO", "SAMQ", "SAFC", "DAMQ", "DAMQ-RSV", "CQ")

#: Scheduler driving each architecture in the head-to-head grid.  The
#: crosspoint-queued switch has no central arbiter; everything else runs
#: under the paper's smart arbiter for an apples-to-apples comparison.
GRID_SCHEDULERS = {"CQ": "lqf"}

#: Scheduler comparison rows: (buffer kind, scheduler kind).
SCHEDULER_PAIRS = (
    ("DAMQ-RSV", "smart"),
    ("DAMQ-RSV", "islip1"),
    ("DAMQ-RSV", "islip2"),
    ("DAMQ-RSV", "islip4"),
    ("CQ", "lqf"),
    ("CQ", "rr"),
)

#: Traffic patterns of the head-to-head grid.
TRAFFIC_KINDS = ("uniform", "hotspot")

#: Hot-spot intensity: strong enough that the hot output saturates and
#: the buffer architecture decides whether the cold outputs survive.
HOT_FRACTION = 0.2

#: Offered loads swept per traffic pattern.
LOADS = (0.3, 0.6, 0.9)
QUICK_LOADS = (0.9,)


def _base_config(seed: int) -> NetworkConfig:
    """The matched-budget switch every cell shares.

    Sixteen ports of 4×4 switches with eight slots per input buffer:
    every architecture gets the same total storage, and eight divides
    evenly into the four partitions/crosspoints SAMQ, SAFC and CQ need.
    """
    return NetworkConfig(
        num_ports=16,
        radix=4,
        slots_per_buffer=8,
        protocol=Protocol.DISCARDING,
        traffic_kind="uniform",
        hot_fraction=HOT_FRACTION,
        seed=seed,
    )


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Benchmark the architecture zoo."""
    result = ExperimentResult(
        experiment_id="ext-arch",
        title="Extension: architecture zoo — CQ, reserved-slot DAMQ, "
        "distributed schedulers",
        paper_reference="Descendant architectures "
        "(arXiv 0910.1852, 1403.2098, 1112.4214)",
    )
    loads = QUICK_LOADS if quick else LOADS
    warmup = 150 if quick else 300
    measure = 600 if quick else 1500
    base = _base_config(seed)

    grid = [
        (kind, traffic, load)
        for traffic in TRAFFIC_KINDS
        for kind in ARCH_KINDS
        for load in loads
    ]
    configs = [
        base.with_overrides(
            buffer_kind=kind,
            arbiter_kind=GRID_SCHEDULERS.get(kind, "smart"),
            traffic_kind=traffic,
            offered_load=load,
        )
        for kind, traffic, load in grid
    ]
    sched_grid = list(SCHEDULER_PAIRS)
    sched_configs = [
        base.with_overrides(
            buffer_kind=kind,
            arbiter_kind=scheduler,
            traffic_kind="uniform",
            offered_load=loads[-1],
        )
        for kind, scheduler in sched_grid
    ]
    results = parallel_simulate(configs + sched_configs, warmup, measure)
    cells = results[: len(grid)]
    sched_cells = results[len(grid) :]

    data: dict[tuple[str, str, float], dict[str, float]] = {}
    for (kind, traffic, load), cell in zip(grid, cells):
        data[(kind, traffic, load)] = {
            "delivered": cell.delivered_throughput,
            "latency": cell.average_latency,
            "discard_percent": cell.discard_percent,
        }
    result.data["grid"] = data

    for traffic in TRAFFIC_KINDS:
        title = (
            f"Delivered throughput, {traffic} traffic "
            f"(16 ports, 8 slots/buffer, discarding"
            + (f", {HOT_FRACTION:.0%} hot" if traffic == "hotspot" else "")
            + ")"
        )
        table = TextTable(
            title, ["Buffer"] + [f"load {load:g}" for load in loads]
        )
        for kind in ARCH_KINDS:
            table.add_row(
                [kind]
                + [
                    format_value(data[(kind, traffic, load)]["delivered"], 3)
                    for load in loads
                ]
            )
        result.tables.append(table)

    sched_data: dict[tuple[str, str], float] = {}
    sched_table = TextTable(
        f"Scheduler comparison, uniform traffic at load {loads[-1]:g}",
        ["Buffer", "Scheduler", "Delivered", "Latency"],
    )
    for (kind, scheduler), cell in zip(sched_grid, sched_cells):
        sched_data[(kind, scheduler)] = cell.delivered_throughput
        sched_table.add_row(
            [
                kind,
                scheduler,
                format_value(cell.delivered_throughput, 3),
                format_value(cell.average_latency, 2),
            ]
        )
    result.tables.append(sched_table)
    result.data["schedulers"] = sched_data

    load = loads[-1]
    damq = data[("DAMQ", "hotspot", load)]
    reserved = data[("DAMQ-RSV", "hotspot", load)]
    result.notes.append(
        f"hot-spot traffic at load {load:g}: plain DAMQ delivers "
        f"{damq['delivered']:.3f} while discarding "
        f"{damq['discard_percent']:.1f}% — its shared pool fills with "
        f"hot-output packets; the per-output reservation recovers "
        f"{reserved['delivered']:.3f} delivered at "
        f"{reserved['discard_percent']:.1f}% discards"
    )
    uniform_best = max(
        ARCH_KINDS, key=lambda kind: data[(kind, "uniform", load)]["delivered"]
    )
    result.notes.append(
        f"uniform traffic at load {load:g}: dynamic sharing still wins "
        f"({uniform_best} leads with "
        f"{data[(uniform_best, 'uniform', load)]['delivered']:.3f} delivered)"
    )
    return result


def benchmark_document(
    result: ExperimentResult, quick: bool, seed: int
) -> dict[str, Any]:
    """The JSON benchmark document committed as ``BENCH_10.json``.

    Pure reshaping of ``result.data`` into string-keyed JSON; every
    number is a deterministic function of the seed, so regeneration is
    byte-identical.
    """
    grid: dict[str, Any] = {}
    for (kind, traffic, load), cell in sorted(result.data["grid"].items()):
        row = grid.setdefault(traffic, {}).setdefault(kind, {})
        row[f"load{load:g}"] = {
            key: round(value, 6) for key, value in cell.items()
        }
    schedulers = {
        f"{kind}/{scheduler}": round(delivered, 6)
        for (kind, scheduler), delivered in sorted(
            result.data["schedulers"].items()
        )
    }
    return {
        "schema": 1,
        "kind": "arch-zoo",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "num_ports": 16,
        "slots_per_buffer": 8,
        "protocol": "discarding",
        "hot_fraction": HOT_FRACTION,
        "grids": grid,
        "schedulers": schedulers,
    }


def main(argv: list[str] | None = None) -> int:
    """Write the benchmark document (and print the report)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.ext_arch",
        description="Benchmark the architecture zoo and write the "
        "deterministic BENCH document.",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the benchmark JSON here (e.g. benchmarks/BENCH_10.json)",
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=1988)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    result = run_experiment(
        "ext-arch", quick=args.quick, seed=args.seed, jobs=args.jobs
    )
    print(result.render())
    if args.out is not None:
        document = benchmark_document(result, args.quick, args.seed)
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
