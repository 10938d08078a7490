"""Omega multistage interconnection network simulation (Section 4.2)."""

from repro.network.metrics import Meters, SimulationResult
from repro.network.saturation import (
    CurvePoint,
    SaturationResult,
    latency_throughput_curve,
    measure_saturation,
)
from repro.network.simulator import (
    NetworkConfig,
    OmegaNetworkSimulator,
    simulate,
)
from repro.network.sources import Sink, Source
from repro.network.topology import OmegaTopology, PortLocation
from repro.network.traffic import (
    HotSpotTraffic,
    PermutationTraffic,
    TrafficPattern,
    UniformTraffic,
    make_traffic,
)

__all__ = [
    "CurvePoint",
    "HotSpotTraffic",
    "Meters",
    "NetworkConfig",
    "OmegaNetworkSimulator",
    "OmegaTopology",
    "PermutationTraffic",
    "PortLocation",
    "SaturationResult",
    "SimulationResult",
    "Sink",
    "Source",
    "TrafficPattern",
    "UniformTraffic",
    "latency_throughput_curve",
    "make_traffic",
    "measure_saturation",
    "simulate",
]
