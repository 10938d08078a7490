"""Table 5 — average latency varying the number of slots per buffer.

FIFO and DAMQ with 3, 4 and 8 slots per input buffer: latency at 25% and
50% throughput, saturated latency and saturation throughput.  The paper's
point: extra slots move FIFO's saturation only modestly while DAMQ with
*three* slots already saturates above FIFO with eight — buffer control
beats buffer capacity.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult, sim_cycles
from repro.network import NetworkConfig
from repro.network.saturation import SATURATION_LOAD, latency_throughput_curves
from repro.switch.flow_control import Protocol
from repro.utils.tables import TextTable, format_value

__all__ = ["run", "PAPER_SLOT_COUNTS"]

#: Buffer depths compared in the paper's table.
PAPER_SLOT_COUNTS = (3, 4, 8)

_KIND_ORDER = ("FIFO", "DAMQ")


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Regenerate Table 5."""
    warmup, measure = sim_cycles(quick)
    slot_counts = (3, 8) if quick else PAPER_SLOT_COUNTS
    result = ExperimentResult(
        experiment_id="table5",
        title="Average latencies varying the number of slots per buffer",
        paper_reference="Table 5, Section 4.2.1",
    )
    table = TextTable(
        "Latency (clock cycles) and saturation point by buffer depth",
        [
            "Buffer",
            "Slots",
            "lat @0.25",
            "lat @0.50",
            "saturated lat",
            "saturation throughput",
        ],
    )
    base = NetworkConfig(
        protocol=Protocol.BLOCKING,
        arbiter_kind="smart",
        traffic_kind="uniform",
        seed=seed,
    )
    data: dict[tuple[str, int], dict] = {}
    cells = [(kind, slots) for kind in _KIND_ORDER for slots in slot_counts]
    curves = latency_throughput_curves(
        [
            base.with_overrides(buffer_kind=kind, slots_per_buffer=slots)
            for kind, slots in cells
        ],
        [0.25, 0.50, SATURATION_LOAD],
        warmup,
        measure,
    )
    for (kind, slots), (at_25, at_50, saturation) in zip(cells, curves):
        data[(kind, slots)] = {
            "lat_25": at_25.average_latency,
            "lat_50": at_50.average_latency,
            "saturated_latency": saturation.average_latency,
            "saturation_throughput": saturation.delivered_throughput,
        }
        table.add_row(
            [
                kind,
                slots,
                format_value(at_25.average_latency, 1),
                format_value(at_50.average_latency, 1),
                format_value(saturation.average_latency, 1),
                format_value(saturation.delivered_throughput, 2),
            ]
        )
    result.tables.append(table)
    result.data["rows"] = data
    smallest_damq = data[("DAMQ", slot_counts[0])]["saturation_throughput"]
    largest_fifo = data[("FIFO", slot_counts[-1])]["saturation_throughput"]
    result.notes.append(
        f"DAMQ with {slot_counts[0]} slots saturates at {smallest_damq:.2f}, "
        f"above FIFO with {slot_counts[-1]} slots ({largest_fifo:.2f}) — "
        "the paper's area-for-control argument."
    )
    return result
