"""Figure 3 — latency vs throughput for FIFO and DAMQ buffers, four slots.

Sweeps the offered load, measuring delivered throughput and mean latency
at each point, reproducing the figure's signature: near-constant latency
up to saturation, then an almost vertical wall — with the DAMQ's wall far
to the right of the FIFO's.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult, sim_cycles
from repro.network import NetworkConfig
from repro.network.saturation import latency_throughput_curves
from repro.switch.flow_control import Protocol
from repro.utils.tables import TextTable, format_value

__all__ = ["run", "SWEEP_LOADS", "ascii_plot"]

#: Offered-load sweep of the full experiment.
SWEEP_LOADS = (0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 1.0)

#: Shorter sweep for the quick/benchmark run.
QUICK_LOADS = (0.2, 0.4, 0.5, 0.7, 1.0)

_KINDS = ("FIFO", "DAMQ")


def ascii_plot(
    curves: dict[str, list], width: int = 64, height: int = 18
) -> str:
    """Scatter plot of latency (y) vs delivered throughput (x) in ASCII.

    One mark per curve point; the first character of the buffer name is
    the mark.  Rough, but it makes the knee obvious in a terminal.
    """
    points = [
        (point.delivered_throughput, point.average_latency, kind[0])
        for kind, curve in curves.items()
        for point in curve
    ]
    if not points:
        return "(no data)"
    max_latency = max(latency for _t, latency, _m in points)
    grid = [[" "] * width for _ in range(height)]
    for throughput, latency, mark in points:
        column = min(width - 1, int(throughput * (width - 1)))
        row = min(height - 1, int(latency / max_latency * (height - 1)))
        grid[height - 1 - row][column] = mark
    lines = [f"latency (max {max_latency:.0f} cycles)"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width + "> delivered throughput (0..1)")
    return "\n".join(lines)


def run(
    quick: bool = False, seed: int = 1988, jobs: int | None = 1
) -> ExperimentResult:
    """Regenerate Figure 3 as a data table plus an ASCII rendering."""
    warmup, measure = sim_cycles(quick)
    loads = list(QUICK_LOADS if quick else SWEEP_LOADS)
    result = ExperimentResult(
        experiment_id="figure3",
        title="FIFO vs DAMQ latency/throughput curves "
        "(four slots, uniform traffic)",
        paper_reference="Figure 3, Section 4.2.1",
    )
    base = NetworkConfig(
        slots_per_buffer=4,
        protocol=Protocol.BLOCKING,
        arbiter_kind="smart",
        traffic_kind="uniform",
        seed=seed,
    )
    curves = dict(
        zip(
            _KINDS,
            latency_throughput_curves(
                [base.with_overrides(buffer_kind=kind) for kind in _KINDS],
                loads, warmup, measure, jobs=jobs,
            ),
        )
    )
    table = TextTable(
        "Curve points",
        ["Buffer", "offered", "delivered", "latency (cycles)", "±95%"],
    )
    for kind, curve in curves.items():
        for point in curve:
            table.add_row(
                [
                    kind,
                    format_value(point.offered_load, 2),
                    format_value(point.delivered_throughput, 3),
                    format_value(point.average_latency, 2),
                    format_value(point.latency_half_width, 2),
                ]
            )
    result.tables.append(table)
    result.data["curves"] = curves
    result.notes.append(ascii_plot(curves))
    fifo_max = max(p.delivered_throughput for p in curves["FIFO"])
    damq_max = max(p.delivered_throughput for p in curves["DAMQ"])
    result.notes.append(
        f"FIFO's curve goes vertical near {fifo_max:.2f}; DAMQ's near "
        f"{damq_max:.2f}."
    )
    return result
