"""Extension — switch radix ablation for a fixed 64-port network.

The paper builds its 64×64 network from 4×4 switches; the introduction
notes real switches range from 2×2 to ~10×10.  This experiment holds the
network size, total buffering per input and workload fixed and varies the
switch radix: 2×2 (six stages), 4×4 (three stages) and 8×8 (two stages),
asking how the radix choice interacts with each buffer architecture.

Expected physics: higher radix means fewer hops (lower base latency) and
fewer head-of-line victims per FIFO queue... but also more output ports
sharing one DAMQ pool, and for the partitioned designs ever-thinner
partitions.  The DAMQ handles the radix sweep most gracefully — its
advantage is precisely that storage follows demand.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.experiments.report import ExperimentResult, sim_cycles
from repro.network import NetworkConfig
from repro.network.saturation import SATURATION_LOAD, latency_throughput_curves
from repro.switch.flow_control import Protocol
from repro.utils.tables import TextTable, format_value

__all__ = ["run", "RADICES"]

#: Switch arities swept (each must divide 64 into a power).
RADICES = (2, 4, 8)

_KIND_ORDER = ("FIFO", "SAMQ", "SAFC", "DAMQ")


def run(quick: bool = False, seed: int = 1988) -> ExperimentResult:
    """Saturation throughput for each (radix, buffer architecture) pair.

    Buffer capacity per input port is ``2 * radix`` slots so the static
    designs keep two slots per partition at every radix (and every design
    gets equal storage at a given radix).
    """
    warmup, measure = sim_cycles(quick)
    radices = (2, 4) if quick else RADICES
    result = ExperimentResult(
        experiment_id="ext-radix",
        title="Extension: switch radix ablation (64 ports, uniform traffic)",
        paper_reference="Section 1's 2 <= n <= 10 switch-size range",
    )
    table = TextTable(
        "Saturation throughput by switch radix "
        "(buffer = 2*radix slots per input)",
        ["Buffer"] + [f"{radix}x{radix} ({_stages(radix)} stages)" for radix in radices],
    )
    base = NetworkConfig(
        num_ports=64,
        protocol=Protocol.BLOCKING,
        arbiter_kind="smart",
        traffic_kind="uniform",
        seed=seed,
    )
    data: dict[tuple[str, int], float] = {}
    grid = [(kind, radix) for kind in _KIND_ORDER for radix in radices]
    curves = latency_throughput_curves(
        [
            base.with_overrides(
                buffer_kind=kind, radix=radix, slots_per_buffer=2 * radix
            )
            for kind, radix in grid
        ],
        [SATURATION_LOAD],
        warmup,
        measure,
    )
    for (kind, radix), (saturation,) in zip(grid, curves):
        data[(kind, radix)] = saturation.delivered_throughput
    for kind in _KIND_ORDER:
        table.add_row(
            [kind]
            + [format_value(data[(kind, radix)], 3) for radix in radices]
        )
    result.tables.append(table)
    result.data["saturation"] = data
    for radix in radices:
        best = max(_KIND_ORDER, key=lambda kind: data[(kind, radix)])
        result.notes.append(
            f"radix {radix}: best architecture is {best} "
            f"({data[(best, radix)]:.3f})"
        )
    return result


def _stages(radix: int) -> int:
    stages = 0
    size = 1
    while size < 64:
        size *= radix
        stages += 1
    if size != 64:
        raise ConfigurationError(f"radix {radix} does not divide 64 ports")
    return stages
