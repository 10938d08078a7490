"""Table 4 — average latency vs throughput, four slots per buffer.

Blocking Omega network, uniform traffic, smart arbitration.  For each
buffer architecture: mean packet latency (clock cycles) at throughputs
0.25, 0.30, 0.40 and 0.50, the latency at saturation, and the saturation
throughput — the table behind the paper's "forty percent higher maximum
throughput" headline.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult, sim_cycles
from repro.network import NetworkConfig
from repro.network.saturation import SATURATION_LOAD, latency_throughput_curves
from repro.switch.flow_control import Protocol
from repro.utils.tables import TextTable, format_value

__all__ = ["run", "PAPER_LOADS"]

_KIND_ORDER = ("FIFO", "DAMQ", "SAFC", "SAMQ")

#: Sub-saturation throughput columns of the paper's table.
PAPER_LOADS = (0.25, 0.30, 0.40, 0.50)


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Regenerate Table 4."""
    warmup, measure = sim_cycles(quick)
    loads = PAPER_LOADS[:2] + (PAPER_LOADS[-1],) if quick else PAPER_LOADS
    result = ExperimentResult(
        experiment_id="table4",
        title="Average latencies for given throughput "
        "(four slots per buffer, uniform traffic, blocking)",
        paper_reference="Table 4, Section 4.2.1",
    )
    columns = (
        ["Buffer"]
        + [f"lat @{load:.2f}" for load in loads]
        + ["saturated lat", "saturation throughput"]
    )
    table = TextTable("Average latency (clock cycles)", columns)
    base = NetworkConfig(
        slots_per_buffer=4,
        protocol=Protocol.BLOCKING,
        arbiter_kind="smart",
        traffic_kind="uniform",
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
    fifo = data["FIFO"]["saturation_throughput"]
    damq = data["DAMQ"]["saturation_throughput"]
    result.data["damq_over_fifo"] = damq / fifo
    result.notes.append(
        f"DAMQ saturates at {damq:.2f} vs FIFO's {fifo:.2f} — "
        f"{100 * (damq / fifo - 1):.0f}% higher (paper: ~40%)."
    )
    result.notes.append(
        "Below 0.40 the four architectures are nearly indistinguishable, "
        "as the paper observes."
    )
    return result
