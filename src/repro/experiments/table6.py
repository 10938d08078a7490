"""Table 6 — 5% hot-spot traffic: tree saturation levels every buffer.

With five percent of all packets aimed at one memory module, the hot
output link's capacity bounds the whole network: every architecture tree-
saturates at nearly the same offered load (just under 0.25 for 64 ports),
and below that point their latencies are nearly identical.  The buffer
architecture cannot fix hot-spot contention — the paper's argument for the
RP3's separate combining network.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult, sim_cycles
from repro.network import NetworkConfig
from repro.network.saturation import SATURATION_LOAD, latency_throughput_curves
from repro.switch.flow_control import Protocol
from repro.utils.tables import TextTable, format_value

__all__ = ["run", "PAPER_HOT_LOADS", "HOT_FRACTION"]

_KIND_ORDER = ("FIFO", "SAMQ", "SAFC", "DAMQ")

#: Sub-saturation throughput columns of the paper's table.
PAPER_HOT_LOADS = (0.125, 0.20)

#: Fraction of traffic aimed at the hot module (Pfister & Norton's 5%).
HOT_FRACTION = 0.05


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Regenerate Table 6."""
    warmup, measure = sim_cycles(quick)
    loads = (PAPER_HOT_LOADS[0],) if quick else PAPER_HOT_LOADS
    result = ExperimentResult(
        experiment_id="table6",
        title="Average latency with 5% hot-spot traffic (four slots)",
        paper_reference="Table 6, Section 4.2.1",
    )
    columns = (
        ["Buffer"]
        + [f"lat @{load:.3f}" for load in loads]
        + ["saturated lat", "saturation throughput"]
    )
    table = TextTable("Hot-spot latencies (clock cycles)", columns)
    base = NetworkConfig(
        slots_per_buffer=4,
        protocol=Protocol.BLOCKING,
        arbiter_kind="smart",
        traffic_kind="hotspot",
        hot_fraction=HOT_FRACTION,
        seed=seed,
    )
    data: dict[str, dict] = {}
    # One grid: each kind's sub-saturation loads, then its saturation.
    curves = latency_throughput_curves(
        [base.with_overrides(buffer_kind=kind) for kind in _KIND_ORDER],
        [*loads, SATURATION_LOAD],
        warmup,
        measure,
    )
    for kind, (*points, saturation) in zip(_KIND_ORDER, curves):
        latencies = {
            point.offered_load: point.average_latency for point in points
        }
        data[kind] = {
            "latencies": latencies,
            "saturation_throughput": saturation.delivered_throughput,
            "saturated_latency": saturation.average_latency,
        }
        table.add_row(
            [kind]
            + [format_value(latencies[load], 2) for load in loads]
            + [
                format_value(saturation.average_latency, 2),
                format_value(saturation.delivered_throughput, 2),
            ]
        )
    result.tables.append(table)
    result.data["rows"] = data
    throughputs = [row["saturation_throughput"] for row in data.values()]
    result.data["saturation_spread"] = max(throughputs) - min(throughputs)
    result.notes.append(
        "All four architectures tree-saturate at nearly the same offered "
        "load (the hot link's capacity divided across 64 sources bounds "
        "the network at ~0.24), reproducing the paper's conclusion that "
        "buffer structure cannot mitigate hot spots."
    )
    return result
