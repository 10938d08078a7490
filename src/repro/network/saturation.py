"""Saturation-throughput measurement and latency/throughput curves.

The paper characterizes each buffer architecture by (a) its average
latency at sub-saturation throughputs and (b) the throughput at which the
network *saturates* — the knee past which latency explodes (Figure 3,
Tables 4-6).

With blocking flow control and generators that stall behind a finite
injection queue, the delivered throughput is self-limiting: offering a
load of 1.0 measures the network's maximum sustainable (saturation)
throughput directly, and the latency observed there is the "saturated"
latency the paper tabulates.  A saturation point is therefore just the
:data:`SATURATION_LOAD` point of a latency/throughput sweep: an experiment
appends that load to its sub-saturation loads and submits every row of
its table as one grid through :func:`latency_throughput_curves`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.network.metrics import SimulationResult
from repro.network.simulator import NetworkConfig
from repro.perf.parallel import parallel_simulate

__all__ = [
    "SATURATION_LOAD",
    "SaturationResult",
    "CurvePoint",
    "measure_saturation",
    "latency_throughput_curve",
    "latency_throughput_curves",
]


#: Offered load whose curve point is the saturation point: the generators
#: never idle, so delivered throughput is the network's maximum.
SATURATION_LOAD = 1.0


@dataclass(frozen=True)
class SaturationResult:
    """Saturation point of one configuration."""

    buffer_kind: str
    slots_per_buffer: int
    traffic_kind: str
    saturation_throughput: float
    saturated_latency: float

    def describe(self) -> str:
        """One-line summary matching the paper's table columns."""
        return (
            f"{self.buffer_kind:5s} slots={self.slots_per_buffer} "
            f"{self.traffic_kind:8s} saturation={self.saturation_throughput:.2f} "
            f"saturated latency={self.saturated_latency:.2f}"
        )


@dataclass(frozen=True)
class CurvePoint:
    """One point of a latency/throughput curve (Figure 3)."""

    offered_load: float
    delivered_throughput: float
    average_latency: float
    #: Normal-approximation 95% half-width on the mean latency (nan when
    #: fewer than two packets were delivered).
    latency_half_width: float = float("nan")


def measure_saturation(
    config: NetworkConfig,
    warmup_cycles: int = 2000,
    measure_cycles: int = 10000,
) -> SaturationResult:
    """Drive the network at full offered load and read off the plateau.

    The generators are never idle at offered load 1.0, so the delivered
    throughput equals the network's maximum sustainable throughput and the
    mean latency is the saturated latency (finite, because the injection
    queue bounds per-packet waiting at the source).
    """
    [[point]] = latency_throughput_curves(
        [config], [SATURATION_LOAD], warmup_cycles, measure_cycles
    )
    return SaturationResult(
        buffer_kind=config.buffer_kind,
        slots_per_buffer=config.slots_per_buffer,
        traffic_kind=config.traffic_kind,
        saturation_throughput=point.delivered_throughput,
        saturated_latency=point.average_latency,
    )


def latency_throughput_curve(
    config: NetworkConfig,
    offered_loads: list[float],
    warmup_cycles: int = 2000,
    measure_cycles: int = 10000,
) -> list[CurvePoint]:
    """Sweep offered load and collect (delivered, latency) pairs.

    This regenerates the characteristic curve of Figure 3: flat latency up
    to the saturation throughput, then a nearly vertical wall (delivered
    throughput stops increasing while latency keeps climbing).  The sweep
    points are independent runs of one simulation grid.
    """
    return latency_throughput_curves(
        [config], offered_loads, warmup_cycles, measure_cycles
    )[0]


def latency_throughput_curves(
    configs: Sequence[NetworkConfig],
    offered_loads: list[float],
    warmup_cycles: int = 2000,
    measure_cycles: int = 10000,
) -> list[list[CurvePoint]]:
    """One curve per config, every sweep point in one simulation grid.

    A single :func:`repro.perf.parallel_simulate` call runs all curves,
    so a whole figure or table is one dispatch and the numpy backend
    fuses each batch group of it into one kernel.
    """
    grid = [
        config.with_overrides(offered_load=load)
        for config in configs
        for load in offered_loads
    ]
    results: Iterator[SimulationResult] = iter(
        parallel_simulate(grid, warmup_cycles, measure_cycles)
    )
    # ``zip`` stops on the loads before it draws a result, so each curve
    # takes the next ``len(offered_loads)`` results.
    return [
        [
            CurvePoint(
                offered_load=load,
                delivered_throughput=result.delivered_throughput,
                average_latency=result.average_latency,
                latency_half_width=result.meters.latency.mean_half_width(),
            )
            for load, result in zip(offered_loads, results)
        ]
        for _config in configs
    ]
