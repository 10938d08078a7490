"""The ``SimKernel`` backend interface and backend resolution rules.

A kernel owns one simulation: it is constructed from a
:class:`~repro.network.simulator.NetworkConfig`, advances in whole
network cycles, and can pack its complete observable state into a
JSON-able dict whose canonical digest is comparable *across backends*.
Two kernels built from the same config must produce identical packed
states after every cycle — that is the contract the differential
harness (:mod:`repro.kernel.differential`) enforces.

Backend resolution distinguishes a *forced* request (the ``--backend``
flag, a service job field, an explicit ``backend=`` argument) from a
*soft* preference (the ``REPRO_BACKEND`` environment variable).  A
forced request that cannot be honoured — the numpy backend under
telemetry, the sanitizer, checkpointing, or an unsupported config —
raises :class:`~repro.errors.ConfigurationError`; a soft preference
falls back to the reference kernel instead, because those paths are
implemented only by the reference simulator's instrumented classes.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.utils.digest import digest_json

if TYPE_CHECKING:
    from repro.network.metrics import SimulationResult
    from repro.network.simulator import NetworkConfig

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "NUMPY_ARBITER_KINDS",
    "NUMPY_BUFFER_KINDS",
    "SimKernel",
    "make_kernel",
    "normalize_backend",
    "numpy_unsupported_reason",
    "requested_backend",
    "resolve_backend",
]

#: Recognized backend names, in preference-listing order.
BACKENDS = ("reference", "numpy")

DEFAULT_BACKEND = "reference"

#: Environment variable naming the soft backend preference.
BACKEND_ENV = "REPRO_BACKEND"

#: The configurations the vectorized kernel implements: the paper's four
#: buffer architectures under its two arbiters.  The ``repro.arch`` zoo
#: (DAMQ-RSV, CQ, the crosspoint/iterative schedulers) stays on the
#: reference kernel.
NUMPY_BUFFER_KINDS = ("FIFO", "SAMQ", "SAFC", "DAMQ")
NUMPY_ARBITER_KINDS = ("smart", "dumb")


class SimKernel(ABC):
    """One simulation, advanced a whole network cycle at a time."""

    #: Backend name, matching an entry of :data:`BACKENDS`.
    name: str = "abstract"

    config: "NetworkConfig"

    @property
    @abstractmethod
    def cycle(self) -> int:
        """Network cycles completed so far."""

    @abstractmethod
    def prepare(self, total_cycles: int) -> None:
        """Pre-size internal state for a run of ``total_cycles`` cycles.

        Idempotent; kernels that need no pre-sizing may ignore it.  The
        numpy kernel uses it to decode the arrival streams up front.
        """

    @abstractmethod
    def begin_measurement(self) -> None:
        """Open the measurement window at the *current* cycle.

        Equivalent to the reference ``run`` loop reaching
        ``cycle == warmup_cycles``: every packet created from this
        clock on is counted by the meters.
        """

    @abstractmethod
    def step(self) -> None:
        """Advance the network by one cycle."""

    @abstractmethod
    def packed_state(self) -> dict[str, Any]:
        """The complete observable state as a JSON-able dict.

        Covers cycle count, per-stage slot totals, every buffer's
        logical queue contents (packet id, destination, creation and
        injection clocks, in FIFO order per queue), the length
        registers, arbiter fairness state, source injection queues and
        RNG-cursor proxies (generated / stalled counts), sink and
        switch counters, the packet-factory counter and the full meters
        snapshot.  Two backends in the same state pack identically;
        physical DAMQ slot indices are deliberately excluded because
        free-list order is unobservable (see DESIGN §12).
        """

    @abstractmethod
    def finish(self, warmup_cycles: int, measure_cycles: int) -> "SimulationResult":
        """Summarize a completed run as a :class:`SimulationResult`."""

    def state_digest(self) -> str:
        """Canonical digest of :meth:`packed_state`."""
        return digest_json(self.packed_state())

    def run(
        self, warmup_cycles: int = 2000, measure_cycles: int = 10000
    ) -> "SimulationResult":
        """Warm up, measure, and summarize (reference ``run`` semantics)."""
        if warmup_cycles < 0 or measure_cycles < 1:
            raise ConfigurationError("invalid warmup/measure cycle counts")
        total = warmup_cycles + measure_cycles
        self.prepare(total)
        while self.cycle < total:
            if self.cycle == warmup_cycles:
                self.begin_measurement()
            self.step()
        return self.finish(warmup_cycles, measure_cycles)


def normalize_backend(name: str) -> str:
    """Validate and canonicalize a backend name."""
    normalized = name.strip().lower()
    if normalized not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulation backend {name!r}; expected one of {BACKENDS}"
        )
    return normalized


def requested_backend() -> str | None:
    """The soft backend preference from ``REPRO_BACKEND`` (or ``None``)."""
    value = os.environ.get(BACKEND_ENV, "")
    if value in ("", "0"):
        return None
    return normalize_backend(value)


def numpy_unsupported_reason(config: "NetworkConfig") -> str | None:
    """Why the numpy kernel cannot run ``config`` (``None`` if it can).

    The vectorized kernel covers the full paper grid — all four buffer
    kinds, both protocols, both arbiter schemes, all traffic patterns,
    both flow-control fidelities — but not the orthogonal extension
    features, which stay on the reference kernel.
    """
    if config.buffer_kind not in NUMPY_BUFFER_KINDS:
        return (
            f"extension buffer architecture {config.buffer_kind!r} "
            "(only the paper buffers are vectorized)"
        )
    if config.arbiter_kind not in NUMPY_ARBITER_KINDS:
        return (
            f"extension scheduler {config.arbiter_kind!r} "
            "(only the paper's smart/dumb arbiters are vectorized)"
        )
    if config.packet_size != 1 or config.packet_size_max is not None:
        return "variable/multi-slot packet sizes"
    if config.serialize_links:
        return "link serialization"
    if config.packet_loss_rate > 0.0:
        return "fault injection (packet loss)"
    if config.retired_slots_per_buffer > 0:
        return "retired buffer slots"
    return None


def resolve_backend(
    config: "NetworkConfig",
    backend: str | None = None,
    *,
    sanitize: bool = False,
    trace: bool = False,
    checkpoint: bool = False,
) -> str:
    """Pick the backend for one run.

    ``backend`` is the forced request (already normalized or raw); when
    ``None`` the ``REPRO_BACKEND`` preference applies softly.  The
    instrumentation flags describe what the caller is about to do:
    telemetry, the sanitizer and checkpointing all live in the
    reference simulator's class hierarchy, so the numpy kernel refuses
    them when forced and yields to the reference kernel when merely
    preferred.
    """
    forced = backend is not None
    requested = (
        normalize_backend(backend)
        if backend is not None
        else requested_backend() or DEFAULT_BACKEND
    )
    if requested != "numpy":
        return requested
    reason: str | None = None
    if sanitize:
        reason = "the sanitizer instruments the reference buffer classes"
    elif trace:
        reason = "telemetry instruments the reference simulator classes"
    elif checkpoint:
        reason = "checkpoint/resume is implemented by the reference simulator"
    else:
        unsupported = numpy_unsupported_reason(config)
        if unsupported is not None:
            reason = f"unsupported configuration: {unsupported}"
    if reason is None:
        return "numpy"
    if forced:
        raise ConfigurationError(
            f"the numpy backend cannot run this job ({reason}); "
            "drop --backend numpy or disable the conflicting feature"
        )
    return DEFAULT_BACKEND


def make_kernel(config: "NetworkConfig", backend: str = DEFAULT_BACKEND) -> SimKernel:
    """Construct a kernel for ``config`` on the named backend."""
    normalized = normalize_backend(backend)
    if normalized == "reference":
        from repro.kernel.reference import ReferenceKernel

        return ReferenceKernel(config)
    reason = numpy_unsupported_reason(config)
    if reason is not None:
        raise ConfigurationError(
            f"the numpy backend cannot run this configuration ({reason})"
        )
    from repro.kernel.numpy_kernel import NumpyKernel

    return NumpyKernel(config)
