"""Extension — variable-length packets (the paper's stated future work).

The conclusion of the paper: "We believe that the DAMQ buffer will
outperform its competition by an even wider margin for the more realistic
case of variable length packets."  This experiment tests that prediction:
packets occupy one to four buffer slots (uniformly), every architecture
gets the same 8-slot budget, and we compare saturation throughput against
the fixed-length baseline.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentResult, sim_cycles
from repro.network import NetworkConfig
from repro.network.saturation import SATURATION_LOAD, latency_throughput_curves
from repro.switch.flow_control import Protocol
from repro.utils.tables import TextTable, format_value

__all__ = ["run"]

_KIND_ORDER = ("FIFO", "SAMQ", "SAFC", "DAMQ")

#: Slots per buffer — large enough that a maximum-size packet fits a SAMQ
#: partition (8 / 4 outputs = 2 slots... so cap variable sizes at 2 for the
#: static designs' feasibility; see note below).
SLOTS = 8


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Compare fixed vs variable packet sizes across architectures.

    The statically partitioned buffers can only accept packets that fit a
    partition (2 slots at this budget), so the variable mix is uniform on
    {1, 2} slots; the fixed baseline uses 1-slot packets at the same
    buffer budget.
    """
    warmup, measure = sim_cycles(quick)
    result = ExperimentResult(
        experiment_id="ext-varlen",
        title="Extension: variable-length packets "
        "(uniform sizes 1-2 slots, 8 slots per buffer)",
        paper_reference="Conclusion (Section 5) — predicted wider DAMQ margin",
    )
    base = NetworkConfig(
        slots_per_buffer=SLOTS,
        protocol=Protocol.BLOCKING,
        arbiter_kind="smart",
        traffic_kind="uniform",
        seed=seed,
    )
    table = TextTable(
        "Saturation throughput (packets/cycle/port and slots/cycle/port)",
        [
            "Buffer",
            "fixed-size sat",
            "variable-size sat",
            "variable sat (slot units)",
        ],
    )
    data: dict[str, dict[str, float]] = {}
    mean_size = 1.5  # uniform on {1, 2}
    # One grid of three rows per kind: fixed sizes, variable sizes, and
    # variable sizes with store-and-forward link serialization (a size-s
    # packet holds its link for s cycles) — the physically grounded
    # variant of the second table.
    variants = {
        "fixed": {},
        "variable": {"packet_size_max": 2},
        "serialized": {"packet_size_max": 2, "serialize_links": True},
    }
    curves = iter(
        latency_throughput_curves(
            [
                base.with_overrides(buffer_kind=kind, **overrides)
                for overrides in variants.values()
                for kind in _KIND_ORDER
            ],
            [SATURATION_LOAD],
            warmup,
            measure,
        )
    )
    saturation = {
        variant: {
            kind: next(curves)[0].delivered_throughput for kind in _KIND_ORDER
        }
        for variant in variants
    }
    for kind in _KIND_ORDER:
        fixed = saturation["fixed"][kind]
        variable = saturation["variable"][kind]
        data[kind] = {
            "fixed": fixed,
            "variable": variable,
            "variable_slots": variable * mean_size,
        }
        table.add_row(
            [
                kind,
                format_value(fixed, 3),
                format_value(variable, 3),
                format_value(variable * mean_size, 3),
            ]
        )
    result.tables.append(table)
    result.data["rows"] = data
    gap_fixed = data["DAMQ"]["fixed"] / data["FIFO"]["fixed"]
    gap_variable = data["DAMQ"]["variable"] / data["FIFO"]["variable"]
    result.data["gap_fixed"] = gap_fixed
    result.data["gap_variable"] = gap_variable
    result.notes.append(
        f"DAMQ/FIFO saturation ratio: {gap_fixed:.2f} with fixed sizes, "
        f"{gap_variable:.2f} with variable sizes."
    )
    result.notes.append(
        "Static partitions suffer doubly with variable sizes: a 2-slot "
        "packet needs its whole partition, while the DAMQ applies any two "
        "free slots."
    )

    serialized = TextTable(
        "Variable sizes with link serialization "
        "(saturation, packets/cycle/port)",
        ["Buffer", "saturation", "slot units"],
    )
    serial_data = saturation["serialized"]
    for kind, value in serial_data.items():
        serialized.add_row(
            [kind, format_value(value, 3), format_value(value * mean_size, 3)]
        )
    result.tables.append(serialized)
    result.data["serialized"] = serial_data
    result.data["gap_serialized"] = serial_data["DAMQ"] / serial_data["FIFO"]
    result.notes.append(
        f"With serialization the DAMQ/FIFO ratio is "
        f"{result.data['gap_serialized']:.2f}."
    )
    return result
