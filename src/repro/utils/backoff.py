"""Reusable exponential-backoff policy with deterministic jitter.

Retry schedules appear in two places in this codebase — the reliable
transport of :mod:`repro.faults.transport` (retransmission timers counted
in network cycles) and the supervised worker pool of
:mod:`repro.service.supervisor` (task retries and client backoff,
counted in seconds).  Both share the same shape: a base delay that
doubles per attempt up to a cap, a bounded attempt budget, and — for the
wall-clock consumers — jitter that spreads synchronized retries apart.

The policy is *unit-agnostic* (a delay is just a number; the caller
decides whether it means cycles or seconds) and, crucially for this
repository, *deterministic*: jitter is not drawn from global RNG state
but derived from a :class:`~repro.utils.rng.RandomStream` seeded by the
policy seed, the caller-supplied key and the attempt number.  Two
processes computing the delay for the same (seed, key, attempt) agree
exactly; two different tasks (different keys) de-synchronize.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.rng import RandomStream

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff: ``base * min(factor**(attempt-1), cap_multiple)``.

    Parameters
    ----------
    base:
        Delay before the first retry (cycles, seconds — caller's unit).
    factor:
        Multiplier applied per additional attempt.
    cap_multiple:
        Ceiling on the exponential term: the delay never exceeds
        ``base * cap_multiple``.
    max_attempts:
        Total attempt budget (the first try counts as attempt 1).
        :meth:`exhausted` reports when a caller should stop retrying.
    jitter:
        Fraction of the computed delay added as deterministic jitter:
        the final delay is uniform on ``[d, d * (1 + jitter)]``.  Zero
        (the default) reproduces the bare exponential exactly — the
        transport layer relies on this for byte-identical simulations.
    seed:
        Root seed of the jitter stream (ignored when ``jitter`` is 0).
    """

    base: float
    factor: float = 2.0
    cap_multiple: float = 8.0
    max_attempts: int = 12
    jitter: float = 0.0
    seed: int = 1988

    def __post_init__(self) -> None:
        if self.base <= 0 or self.factor < 1 or self.cap_multiple < 1:
            raise ValueError(
                "backoff base must be positive and factor/cap_multiple >= 1"
            )
        if self.max_attempts < 1:
            raise ValueError("backoff max_attempts must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"backoff jitter out of [0, 1]: {self.jitter}")

    def delay(self, attempt: int, key: str = "") -> float:
        """Delay before retrying after ``attempt`` failed tries (>= 1).

        ``key`` names the retrying entity (a task id, a flow) so that
        distinct entities jitter independently while the same entity
        recomputes the same delay anywhere, any time.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = self.base * min(self.factor ** (attempt - 1), self.cap_multiple)
        if self.jitter > 0.0:
            stream = RandomStream(self.seed, f"backoff/{key}/{attempt}")
            raw *= 1.0 + self.jitter * stream.random()
        return raw

    def exhausted(self, attempts: int) -> bool:
        """Whether ``attempts`` tries have consumed the whole budget."""
        return attempts >= self.max_attempts

    def schedule(self, key: str = "") -> list[float]:
        """Every retry delay the budget allows, in order (length
        ``max_attempts - 1``: the first attempt needs no delay)."""
        return [
            self.delay(attempt, key)
            for attempt in range(1, self.max_attempts)
        ]
