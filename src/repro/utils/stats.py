"""Streaming statistics helpers used by the simulators and experiments."""

from __future__ import annotations

import math
from typing import Any

__all__ = ["OnlineStats"]


class OnlineStats:
    """Single-pass mean/variance/min/max accumulator (Welford's algorithm).

    Used for packet-latency statistics where storing every sample of a
    multi-million-cycle run would be wasteful.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one sample into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "OnlineStats") -> None:
        """Fold another accumulator into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        """Sample mean, or ``nan`` when no sample has been added."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance, or ``nan`` with fewer than two samples."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Unbiased sample standard deviation."""
        variance = self.variance
        return math.sqrt(variance) if not math.isnan(variance) else math.nan

    def mean_half_width(self, z: float = 1.96) -> float:
        """Half-width of the normal-approximation CI on the mean.

        With the simulators' large sample counts the normal approximation
        is adequate; callers report ``mean ± mean_half_width()``.  Returns
        ``nan`` with fewer than two samples.
        """
        stddev = self.stddev
        if math.isnan(stddev):
            return math.nan
        return z * stddev / math.sqrt(self.count)

    def get_state(self) -> dict[str, Any]:
        """The exact accumulator state, as a JSON-able dict.

        Floats survive a JSON round-trip bit-exactly (``repr``-based
        encoding), including the ``inf``/``-inf`` sentinels of an empty
        accumulator, so a restored accumulator continues producing the
        same Welford trajectory as the original.
        """
        return {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "minimum": self.minimum,
            "maximum": self.maximum,
        }

    def set_state(self, state: dict[str, Any]) -> None:
        """Overwrite this accumulator with a :meth:`get_state` snapshot.

        Values are adopted without coercion: ``minimum``/``maximum`` keep
        whatever numeric type the samples had (an all-int stream leaves
        int extrema), which JSON preserves exactly.
        """
        self.count = state["count"]
        self._mean = state["mean"]
        self._m2 = state["m2"]
        self.minimum = state["minimum"]
        self.maximum = state["maximum"]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"OnlineStats(count={self.count}, mean={self.mean:.4g})"
