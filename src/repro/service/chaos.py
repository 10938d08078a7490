"""Seeded chaos injection for the supervised worker pool.

The fault-injection philosophy of :mod:`repro.faults` — every fault is a
*seeded draw*, so a chaotic run is exactly reproducible — applied at the
process level.  A :class:`ChaosPolicy` decides, per (task, attempt),
whether the executing worker is killed mid-task.  Decisions derive from a
:class:`~repro.utils.rng.RandomStream` substream named by the task key
and the attempt number, so they do not depend on scheduling, worker
identity, or wall-clock time — two runs of the same workload under the
same chaos seed inject the same faults into the same tasks.

Injections stop after ``max_injections_per_task`` attempts of a task
have been hit, guaranteeing that a retry budget larger than that bound
always completes the work — chaos proves recovery, it never proves
starvation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.utils.rng import RandomStream

__all__ = ["ChaosPolicy"]


@dataclass(frozen=True)
class ChaosPolicy:
    """Per-attempt fault draws for supervised tasks.

    Parameters
    ----------
    seed:
        Root seed of every draw.
    kill_probability:
        Chance an attempt's worker hard-exits (``os._exit``) mid-task —
        the process-level analogue of a crashed chip.
    kill_after_s:
        Delay from task start to the injected kill, uniform in this
        ``(low, high)`` window, so kills land mid-simulation (after a
        checkpoint exists) rather than before any work happened.
    max_injections_per_task:
        Attempts of one task beyond which no further faults are drawn.
    """

    seed: int = 1988
    kill_probability: float = 0.0
    kill_after_s: tuple[float, float] = (0.05, 0.4)
    max_injections_per_task: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_probability <= 1.0:
            raise ConfigurationError(
                f"kill_probability out of [0, 1]: {self.kill_probability}"
            )
        low, high = self.kill_after_s
        if low < 0 or high < low:
            raise ConfigurationError(
                f"kill_after_s must be an ordered non-negative window, "
                f"got {self.kill_after_s}"
            )
        if self.max_injections_per_task < 0:
            raise ConfigurationError("max_injections_per_task must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether kills have a non-zero probability."""
        return self.kill_probability > 0.0

    def draw(self, task_key: str, attempt: int) -> dict[str, Any]:
        """The injection envelope for one attempt of one task.

        Returns a dict the worker loop interprets: ``kill_after_s`` (the
        worker hard-exits that long into the task).  Empty dict =
        attempt runs clean.
        """
        if not self.enabled or attempt > self.max_injections_per_task:
            return {}
        stream = RandomStream(self.seed, f"chaos/{task_key}/{attempt}")
        if stream.bernoulli(self.kill_probability):
            low, high = self.kill_after_s
            return {"kill_after_s": low + (high - low) * stream.random()}
        return {}
