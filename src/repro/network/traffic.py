"""Traffic patterns for the Omega-network evaluation.

The paper drives the network with two patterns (Section 4.2):

* **uniform** — every generated packet picks a destination uniformly at
  random among the network outputs;
* **hot spot** — following Pfister & Norton, a fixed fraction (5%) of all
  traffic is redirected to one designated "hot" output, the rest remains
  uniform.

Both are instances of :class:`TrafficPattern`; additional patterns used by
the extension benchmarks (bit-reversal style permutation, fixed-pairs) are
provided for completeness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigurationError
from repro.utils.rng import RandomStream

__all__ = [
    "TrafficPattern",
    "UniformTraffic",
    "HotSpotTraffic",
    "PermutationTraffic",
    "make_traffic",
]


class TrafficPattern(ABC):
    """Chooses a destination for each packet a source generates."""

    #: Short name used in experiment tables.
    kind: str = "abstract"

    def __init__(self, num_ports: int) -> None:
        if num_ports < 2:
            raise ConfigurationError("traffic needs at least two ports")
        self.num_ports = num_ports

    @abstractmethod
    def destination(self, source: int, rng: RandomStream) -> int:
        """Destination for the next packet generated at ``source``."""


class UniformTraffic(TrafficPattern):
    """Uniformly random destinations (the paper's base workload)."""

    kind = "uniform"

    def destination(self, source: int, rng: RandomStream) -> int:
        return rng.randint(0, self.num_ports)


class HotSpotTraffic(TrafficPattern):
    """Pfister/Norton hot-spot traffic.

    Each packet goes to the hot output, output 0, with probability
    ``hot_fraction`` and to a uniformly random output otherwise (the
    uniform component may also land on the hot output, exactly as in the
    original model).

    Parameters
    ----------
    hot_fraction:
        Fraction of traffic redirected to the hot spot (0.05 in Table 6).
    """

    kind = "hotspot"

    def __init__(self, num_ports: int, hot_fraction: float = 0.05) -> None:
        super().__init__(num_ports)
        if not 0.0 <= hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction out of range: {hot_fraction}"
            )
        self.hot_fraction = hot_fraction

    def destination(self, source: int, rng: RandomStream) -> int:
        if rng.bernoulli(self.hot_fraction):
            return 0
        return rng.randint(0, self.num_ports)


class PermutationTraffic(TrafficPattern):
    """Every source always sends to one fixed destination.

    With the identity-free "bit reversal"-style mapping used here each
    output receives from exactly one input, so the pattern is contention
    free end-to-end *outside* the network; any contention that appears is
    internal blocking.  Used by the extension benchmarks.
    """

    kind = "permutation"

    def __init__(self, num_ports: int, mapping: list[int] | None = None) -> None:
        super().__init__(num_ports)
        if mapping is None:
            mapping = [(num_ports - 1 - port) for port in range(num_ports)]
        if sorted(mapping) != list(range(num_ports)):
            raise ConfigurationError("mapping is not a permutation")
        self.mapping = list(mapping)

    def destination(self, source: int, rng: RandomStream) -> int:
        return self.mapping[source]


def make_traffic(
    kind: str,
    num_ports: int,
    hot_fraction: float = 0.05,
) -> TrafficPattern:
    """Construct a traffic pattern by table name."""
    normalized = kind.lower()
    if normalized == "uniform":
        return UniformTraffic(num_ports)
    if normalized in ("hotspot", "hot-spot", "hot_spot"):
        return HotSpotTraffic(num_ports, hot_fraction)
    if normalized == "permutation":
        return PermutationTraffic(num_ports)
    raise ConfigurationError(f"unknown traffic kind {kind!r}")
