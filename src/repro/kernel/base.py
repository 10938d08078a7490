"""The ``SimKernel`` backend interface and backend resolution rules.

A kernel owns one simulation: it is constructed from a
:class:`~repro.network.simulator.NetworkConfig`, advances in whole
network cycles, and can pack its complete observable state into a
JSON-able dict whose canonical digest is comparable *across backends*.
Two kernels built from the same config must produce identical packed
states after every cycle — that is the contract the differential
harness (:mod:`repro.kernel.differential`) enforces.

The default backend is ``numpy`` wherever it is exact; the reference
simulator stays the oracle and runs everything else.  Backend
resolution distinguishes a *forced* request (the ``--backend`` flag, a
service job field, an explicit ``backend=`` argument) from the *soft*
default that applies when nothing forces a backend.  A forced numpy
request that cannot be honoured — under telemetry, the sanitizer,
checkpointing, on an unsupported config, or when this numpy's random
draws disagree with the kernel's decoding rules
(:func:`~repro.kernel.arrivals.decode_rules_mismatch`) — raises
:class:`~repro.errors.ConfigurationError`; the soft default falls back
to the reference kernel instead and names the reason
(:func:`choose_backend`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.utils.digest import digest_json

if TYPE_CHECKING:
    from repro.network.metrics import SimulationResult
    from repro.network.simulator import NetworkConfig

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "NUMPY_ARBITER_KINDS",
    "NUMPY_BUFFER_KINDS",
    "SimKernel",
    "batch_group_key",
    "choose_backend",
    "config_label",
    "make_kernel",
    "normalize_backend",
    "numpy_unsupported_reason",
]

#: Recognized backend names, in preference-listing order.
BACKENDS = ("reference", "numpy")

#: The backend a run prefers, softly, when nothing forces one.
DEFAULT_BACKEND = "numpy"

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

    #: Network cycles completed so far.
    cycle: int

    def prepare(self, total_cycles: int) -> None:
        """Get ready to run up to ``total_cycles`` cycles.

        Idempotent.  The reference simulator needs nothing; the numpy
        kernel decodes its first window of arrivals (``step`` decodes
        the later ones), so no state is sized by the run's length.
        """

    @abstractmethod
    def begin_measurement(self) -> None:
        """Open the measurement window at the *current* cycle.

        Every packet created from this clock on is counted by the
        meters; a window that is already open keeps its start.
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
        """Warm up, measure, and summarize."""
        self._run_cycles(warmup_cycles, measure_cycles)
        return self.finish(warmup_cycles, measure_cycles)

    def _run_cycles(self, warmup_cycles: int, measure_cycles: int) -> None:
        """Step to the end of the window, opening measurement on the way.

        Packets generated during warm-up never reach the meters; the
        window opens when the clock reaches ``warmup_cycles``.
        """
        if warmup_cycles < 0 or measure_cycles < 1:
            raise ConfigurationError("invalid warmup/measure cycle counts")
        total = warmup_cycles + measure_cycles
        self.prepare(total)
        while self.cycle < total:
            if self.cycle == warmup_cycles:
                self.begin_measurement()
            self.step()


def normalize_backend(name: str) -> str:
    """Validate and canonicalize a backend name."""
    normalized = name.strip().lower()
    if normalized not in BACKENDS:
        raise ConfigurationError(
            f"unknown simulation backend {name!r}; expected one of {BACKENDS}"
        )
    return normalized


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
    if config.radix > 16:
        return (
            f"radix {config.radix} > 16 (the arbitration key packs the "
            "output index into 4 bits)"
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


def config_label(config: "NetworkConfig") -> str:
    """A short label that tells apart the configurations a kernel runs.

    ``kind/protocol/arbiter/traffic@load``, then the network size,
    switch radix, slots per buffer and flow-control fidelity, e.g.
    ``SAMQ/blocking/smart/uniform@0.9 64p r4 8s conservative``.
    """
    return (
        f"{config.buffer_kind}/{config.protocol}/{config.arbiter_kind}"
        f"/{config.traffic_kind}@{config.offered_load:g}"
        f" {config.num_ports}p r{config.radix} {config.slots_per_buffer}s"
        f" {config.flow_control_fidelity}"
    )


def batch_group_key(config: "NetworkConfig") -> tuple[Any, ...]:
    """Structural batching key: equal keys may share one numpy kernel.

    Configurations in one batch must agree on everything that shapes the
    arrays — topology and slot count.  Everything else is a
    per-simulation property: offered load, seed, arbiter scheme, traffic
    pattern, protocol, flow-control fidelity and buffer kind (all four
    kinds share one ring layout) — which is how each of the paper's
    experiment grids runs as one kernel.
    """
    return (config.num_ports, config.radix, config.slots_per_buffer)


def choose_backend(
    config: "NetworkConfig",
    backend: str | None = None,
    *,
    sanitize: bool = False,
    trace: bool = False,
    checkpoint: bool = False,
) -> tuple[str, str | None]:
    """Pick the backend for one run, and say why numpy was passed over.

    Returns ``(backend, fallback)``: ``fallback`` is ``None`` unless a
    soft numpy preference fell back to the reference kernel, in which
    case it names the reason.  ``backend`` is the forced request
    (already normalized or raw); when ``None``, :data:`DEFAULT_BACKEND`
    applies softly.  The instrumentation flags describe what the caller
    is about to do: telemetry, the sanitizer and checkpointing all live
    in the reference simulator's class hierarchy, so the numpy kernel
    refuses them when forced and yields to the reference kernel when
    merely preferred.  The decode-rule probe runs last, only when numpy would
    otherwise be chosen.
    """
    forced = backend is not None
    requested = (
        normalize_backend(backend) if backend is not None else DEFAULT_BACKEND
    )
    if requested != "numpy":
        return requested, None
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
        else:
            from repro.kernel.arrivals import decode_rules_mismatch

            reason = decode_rules_mismatch()
    if reason is None:
        return "numpy", None
    if forced:
        raise ConfigurationError(
            f"the numpy backend cannot run this job ({reason}); "
            "drop --backend numpy or disable the conflicting feature"
        )
    return "reference", reason


def make_kernel(config: "NetworkConfig", backend: str | None = None) -> SimKernel:
    """Construct a kernel for ``config``.

    ``backend`` forces a backend; ``None`` resolves softly, so configs
    the numpy kernel cannot run get the reference kernel.
    """
    if choose_backend(config, backend)[0] == "reference":
        from repro.network.simulator import OmegaNetworkSimulator

        return OmegaNetworkSimulator(config)
    from repro.kernel.numpy_kernel import NumpyKernel

    return NumpyKernel(config)
