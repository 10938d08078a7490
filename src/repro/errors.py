"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class BufferFullError(ReproError):
    """Raised when a packet is offered to a buffer that cannot accept it.

    Under the *discarding* protocol the switch catches this condition and
    counts the packet as discarded; under the *blocking* protocol the
    upstream transmitter is stalled instead and the error should never
    propagate out of the flow-control layer.
    """


class BufferEmptyError(ReproError):
    """Raised when a read is attempted from a queue that holds no packet."""


class RoutingError(ReproError):
    """Raised when a packet cannot be routed (bad destination or table)."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with inconsistent parameters."""


class ProtocolError(ReproError):
    """Raised when a hardware-model component observes an illegal sequence.

    Examples: starting a new packet transmission on a link whose previous
    packet has not finished, or connecting a crossbar input to two outputs
    at once.
    """


class SimulationError(ReproError):
    """Raised when a simulation reaches an internally inconsistent state."""


class InvariantError(SimulationError):
    """Raised when a structural self-check finds corrupted state.

    Every ``check_invariants`` method raises this instead of using bare
    ``assert`` statements, so the checks keep firing under ``python -O``
    (which strips asserts) and fault-injection campaigns can distinguish
    *detected* corruption from ordinary simulation failures.
    """


class SanitizerError(SimulationError):
    """Raised by :meth:`repro.analysis.sanitizer.HardwareSanitizer.assert_clean`
    when a sanitized run recorded hardware-model violations (use-after-free,
    double-free, port-bandwidth overruns, or a pointer-RAM finding of
    :meth:`repro.core.linkedlist.SlotListManager.pointer_faults`: wild
    pointer, pointer cycle, cross-link, retired-linked slot, stale
    register or leak).  The sanitizer itself never raises mid-simulation
    — it records and keeps going, so one corruption yields a complete
    report."""


class WorkerFailedError(SimulationError):
    """Raised when a unit of work exhausted its worker-restart budget.

    Carries enough structure for a caller (or a service response) to say
    exactly what gave up: which task, after how many attempts, and the
    last on-disk checkpoint a further manual retry could resume from
    (``None`` when the task was not checkpointed).
    """

    def __init__(
        self,
        message: str,
        *,
        task_id: object = None,
        attempts: int = 0,
        checkpoint: str | None = None,
    ) -> None:
        super().__init__(message)
        self.task_id = task_id
        self.attempts = attempts
        self.checkpoint = checkpoint


class FaultError(SimulationError):
    """Raised when the fault-injection machinery itself is misconfigured or
    graceful degradation cannot proceed (e.g. retiring the last usable
    buffer slot)."""
