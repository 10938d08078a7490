"""One observer layer for the hardware sanitizer and the telemetry tracer.

Both rails watch the same choke points of the model: buffer ``push`` /
``pop``, the slot manager's ``allocate`` / ``_append_free`` /
``retire_slot`` / ``restore_state``, scheduler ``arbitrate`` and the
ComCoBB chip's port FSMs.  :func:`observe` instruments a live component
by swapping its ``__class__`` onto a subclass *generated* once per plain
class: every override calls the plain method, then fans out to the
component's observers.  The swap preserves all live state, and with
instrumentation off the plain classes are constructed directly, so the
hot path carries no instrumentation branch at all.

Observers only *observe*: they draw nothing from any RNG and never change
model behaviour, so observed runs are bit-identical to plain ones —
whichever observers are attached, alone or together (pinned by
``tests/integration/test_determinism_regression.py``).

The environment switches (``REPRO_SANITIZE``, ``REPRO_TRACE``,
``REPRO_METRICS``) are decoded here, by :func:`env_instrumentation`
alone.  This module imports neither the chip model nor the architecture
zoo, so plain ``simulate()`` calls stay light.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import Any, NamedTuple, TypeVar

from repro.core.buffer import SwitchBuffer
from repro.core.damq import DamqBuffer
from repro.core.linkedlist import NO_SLOT, SlotListManager
from repro.core.packet import Packet
from repro.errors import ConfigurationError
from repro.network.metrics import SimulationResult
from repro.network.simulator import NetworkConfig, OmegaNetworkSimulator
from repro.switch.scheduler import BlockedPredicate, Grant, Scheduler

__all__ = [
    "METRICS_ENV",
    "Instrumentation",
    "ObservedOmegaNetworkSimulator",
    "Observer",
    "SANITIZE_ENV",
    "TRACE_ENV",
    "env_instrumentation",
    "observe",
    "switch_label",
]

#: Any value other than empty/``0`` runs the hardware sanitizer.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Full tracing (events + metrics).  The value is the export directory;
#: ``""``/``"0"`` disable, ``"1"`` enables without file export.
TRACE_ENV = "REPRO_TRACE"

#: Metrics-only tracing (no event retention), same value convention as
#: :data:`TRACE_ENV`; ignored when full tracing is also requested.
METRICS_ENV = "REPRO_METRICS"

C = TypeVar("C")
O = TypeVar("O", bound="Observer")


class Instrumentation(NamedTuple):
    """What the instrumentation environment asks for.

    ``trace_dir``/``metrics_dir`` are ``None`` when off, ``""`` when on
    without file export, else the export directory.
    """

    sanitize: bool
    trace_dir: str | None
    metrics_dir: str | None

    @property
    def tracing(self) -> bool:
        """Whether either telemetry mode is on."""
        return self.trace_dir is not None or self.metrics_dir is not None


def env_instrumentation(
    environ: Mapping[str, str] | None = None,
) -> Instrumentation:
    """Decode ``REPRO_SANITIZE``/``REPRO_TRACE``/``REPRO_METRICS``.

    ``environ`` overrides :data:`os.environ` (for tests).
    """
    env = os.environ if environ is None else environ

    def directory(variable: str) -> str | None:
        value = env.get(variable, "")
        if value in ("", "0"):
            return None
        return "" if value == "1" else value

    return Instrumentation(
        sanitize=env.get(SANITIZE_ENV, "") not in ("", "0"),
        trace_dir=directory(TRACE_ENV),
        metrics_dir=directory(METRICS_ENV),
    )


def switch_label(stage: int, index: int) -> str:
    """The label naming one switch of an observed Omega network."""
    return f"stage{stage}.switch{index}"


class Observer:
    """Base class of the instrumentation rails: every hook is a no-op.

    Hooks run *after* the plain operation completed.  Observers keep
    their per-component state in their own tables, keyed by the
    component, set up when :meth:`attach` is called.
    """

    def attach(self, component: Any, label: str) -> None:
        """``component`` (or an observed simulator) is now observed."""

    def on_cycle(self, cycle: int) -> None:
        """Simulated cycle ``cycle`` begins."""

    def on_push(
        self, buffer: SwitchBuffer, packet: Packet, destination: int
    ) -> None:
        """``packet`` was stored on ``buffer``'s queue ``destination``."""

    def on_pop(
        self, buffer: SwitchBuffer, packet: Packet, destination: int
    ) -> None:
        """``packet`` left ``buffer``'s queue ``destination``."""

    def on_slot(
        self, manager: SlotListManager, op: str, slot: int, list_id: int
    ) -> None:
        """A slot moved: ``op`` is ``alloc`` (onto list ``list_id``),
        ``free``, ``retire``, or ``restore`` (the whole register file was
        restored from a checkpoint; ``slot`` is ``NO_SLOT``)."""

    def on_grant(
        self,
        scheduler: Scheduler,
        rows: Sequence[list[int]],
        grants: list[Grant],
    ) -> None:
        """``scheduler`` granted ``grants`` over queue-length ``rows``."""

    def on_network(
        self,
        kind: str,
        label: str,
        port: int,
        value: int,
        extra: int = 0,
        measured: bool = False,
    ) -> None:
        """A network-level event: ``link``, ``deliver``, ``loss``,
        ``drop``, ``block`` or ``unblock``, with the fields of a
        :class:`~repro.telemetry.events.TraceEvent`.  ``measured`` marks
        a delivery, loss or drop the simulator's meters counted."""

    def on_finish(self, simulator: OmegaNetworkSimulator) -> None:
        """An observed simulator's :meth:`run` completed."""

    def on_snapshot(self, state: dict[str, Any]) -> None:
        """Add this observer's state to a simulator snapshot."""

    def on_restore(self, state: dict[str, Any]) -> None:
        """Restore this observer's state from a simulator snapshot."""


# -- generated observed subclasses ----------------------------------------


def _buffer_methods(plain: Any) -> dict[str, Any]:
    def push(self: Any, packet: Packet, destination: int) -> None:
        plain.push(self, packet, destination)
        for observer in self._observers:
            observer.on_push(self, packet, destination)

    def pop(self: Any, destination: int) -> Packet:
        packet: Packet = plain.pop(self, destination)
        for observer in self._observers:
            observer.on_pop(self, packet, destination)
        return packet

    return {"push": push, "pop": pop}


def _manager_methods(plain: Any) -> dict[str, Any]:
    def allocate(self: Any, list_id: int) -> int:
        slot: int = plain.allocate(self, list_id)
        for observer in self._observers:
            observer.on_slot(self, "alloc", slot, list_id)
        return slot

    def _append_free(self: Any, slot: int) -> None:
        plain._append_free(self, slot)
        for observer in self._observers:
            observer.on_slot(self, "free", slot, -1)

    def retire_slot(self: Any, slot: int | None = None) -> int:
        retired: int = plain.retire_slot(self, slot)
        for observer in self._observers:
            observer.on_slot(self, "retire", retired, -1)
        return retired

    def restore_state(self: Any, state: dict[str, Any]) -> None:
        plain.restore_state(self, state)
        for observer in self._observers:
            observer.on_slot(self, "restore", NO_SLOT, -1)

    return {
        "allocate": allocate,
        "_append_free": _append_free,
        "retire_slot": retire_slot,
        "restore_state": restore_state,
    }


def _scheduler_methods(plain: Any) -> dict[str, Any]:
    def arbitrate(
        self: Any,
        buffers: Sequence[SwitchBuffer],
        blocked: BlockedPredicate,
        lengths: Sequence[list[int]] | None = None,
    ) -> list[Grant]:
        # Buffer state is constant during arbitration (pops happen at
        # execution), so observers read the same rows the scheduler used.
        rows = (
            lengths
            if lengths is not None
            else [buffer.queue_lengths() for buffer in buffers]
        )
        grants: list[Grant] = plain.arbitrate(self, buffers, blocked, rows)
        for observer in self._observers:
            observer.on_grant(self, rows, grants)
        return grants

    return {"arbitrate": arbitrate}


def _port_link(port: Any, cycle: int) -> None:
    """A chip port completed a packet: stamp the chip's own clock."""
    for observer in port._observers:
        observer.on_cycle(cycle)
        observer.on_network("link", port._observed_label, port.port_id, 1)


def _input_port_methods(plain: Any) -> dict[str, Any]:
    # The receive FSM counts a completed packet deep inside its state
    # handlers; ``sample`` is the single per-cycle entry point around them.
    def sample(self: Any, cycle: int) -> None:
        before = self.packets_received
        plain.sample(self, cycle)
        if self.packets_received != before:
            _port_link(self, cycle)

    return {"sample": sample}


def _output_port_methods(plain: Any) -> dict[str, Any]:
    def _disconnect(self: Any, cycle: int) -> None:
        before = self.packets_sent
        plain._disconnect(self, cycle)
        if self.packets_sent != before:
            _port_link(self, cycle)

    return {"_disconnect": _disconnect}


#: Plain class -> its generated observed subclass.
_OBSERVED_CLASSES: dict[type, type] = {}


def _observed_class(plain: type) -> type:
    """The observed subclass of ``plain``, generated on first use."""
    observed = _OBSERVED_CLASSES.get(plain)
    if observed is not None:
        return observed
    # Imported here: the chip model is heavy and rarely observed.
    from repro.chip.input_port import InputPort
    from repro.chip.output_port import OutputPort

    protocols: tuple[tuple[type, Callable[[Any], dict[str, Any]]], ...] = (
        (SwitchBuffer, _buffer_methods),
        (SlotListManager, _manager_methods),
        (Scheduler, _scheduler_methods),
        (InputPort, _input_port_methods),
        (OutputPort, _output_port_methods),
    )
    for base, methods in protocols:
        if issubclass(plain, base):
            namespace = methods(plain)
            namespace["__module__"] = __name__
            observed = type(f"Observed{plain.__name__}", (plain,), namespace)
            _OBSERVED_CLASSES[plain] = observed
            return observed
    raise ConfigurationError(
        f"cannot observe {plain.__name__}: not a buffer, slot manager, "
        f"scheduler or chip port"
    )


def observe(component: C, observer: Observer, label: str) -> C:
    """Attach ``observer`` to a live ``component``; returns the component.

    The first observation swaps the component onto its generated
    observed subclass and fixes its ``label``; later ones only append
    the observer (attaching the same observer twice is a no-op), which
    is how the sanitizer and the tracer watch one component together.
    A DAMQ-family buffer also has its slot manager observed under the
    same label.
    """
    target: Any = component
    if getattr(target, "_observers", None) is None:
        target.__class__ = _observed_class(type(target))
        target._observers = []
        target._observed_label = label
    if observer not in target._observers:
        target._observers.append(observer)
        observer.attach(target, target._observed_label)
        if isinstance(target, DamqBuffer):
            observe(target._lists, observer, target._observed_label)
    return component


# -- the observed simulator -----------------------------------------------


class ObservedOmegaNetworkSimulator(OmegaNetworkSimulator):
    """Omega-network simulator with every component observed.

    Drop-in replacement for :class:`OmegaNetworkSimulator`: identical
    configuration and bit-identical results.  Each input buffer (and a
    DAMQ buffer's slot manager) is observed as it is built, labelled
    ``stage{s}.switch{i}.in{p}`` from construction order; each arbiter
    is observed as ``stage{s}.switch{i}``.  Packet movement is reported
    through :meth:`Observer.on_network` by diffing the plain code's own
    side effects (stage slot counts, sink counters, meters), so the
    datapath stays the inherited implementation.
    """

    def __init__(
        self, config: NetworkConfig, observers: Sequence[Observer]
    ) -> None:
        # Set before super().__init__: the construction hooks read them.
        self.observers = tuple(observers)
        self._discards = 0
        super().__init__(config)
        for observer in self.observers:
            observer.attach(self, "network")
        for stage, row in enumerate(self.switches):
            for index, switch in enumerate(row):
                for observer in self.observers:
                    observe(switch.arbiter, observer, switch_label(stage, index))

    # -- construction hooks ------------------------------------------------

    def _make_buffer_factory(
        self, config: NetworkConfig
    ) -> Callable[[int], SwitchBuffer]:
        plain = super()._make_buffer_factory(config)
        # Switch construction order: stage-major, then switch, then input.
        labels = iter(
            [
                f"{switch_label(stage, index)}.in{port}"
                for stage in range(self.topology.num_stages)
                for index in range(self.topology.switches_per_stage)
                for port in range(config.radix)
            ]
        )

        def observed_factory(num_outputs: int) -> SwitchBuffer:
            buffer = plain(num_outputs)
            label = next(labels)
            for observer in self.observers:
                observe(buffer, observer, label)
            return buffer

        return observed_factory

    def _make_blocked(self, stage: int, index: int) -> BlockedPredicate:
        base = super()._make_blocked(stage, index)
        label = switch_label(stage, index)
        observers = self.observers
        # Last-observed state per (input, output) pair: events mark
        # *transitions*, so an output blocked for 50 cycles shows as one
        # block/unblock pair in the waveform.
        state: dict[tuple[int, int], bool] = {}

        def observed_blocked(
            input_port: int, output_port: int, packet: Packet
        ) -> bool:
            result = base(input_port, output_port, packet)
            key = (input_port, output_port)
            if result != state.get(key, False):
                state[key] = result
                for observer in observers:
                    observer.on_network(
                        "block" if result else "unblock",
                        f"{label}.in{input_port}",
                        output_port,
                        int(result),
                    )
            return result

        return observed_blocked

    # -- per-cycle observation ---------------------------------------------

    def _report(
        self,
        kind: str,
        label: str,
        port: int,
        packet: Packet,
        measured: bool = False,
    ) -> None:
        for observer in self.observers:
            observer.on_network(
                kind, label, port, packet.size, packet.packet_id, measured
            )

    def step(self) -> None:
        for observer in self.observers:
            observer.on_cycle(self.cycle)
        super().step()

    def _forward(
        self, stage: int, index: int, output_port: int, packet: Packet
    ) -> None:
        slots_before = self._stage_slots[stage + 1]
        lost_before = self.meters.lost
        discards_before = self._discards
        super()._forward(stage, index, output_port, packet)
        label = switch_label(stage, index)
        if self._stage_slots[stage + 1] != slots_before:
            self._report("link", label, output_port, packet)
        elif self.meters.lost != lost_before:
            self._report("loss", label, output_port, packet, measured=True)
        elif self._discards != discards_before:
            pass  # full downstream buffer: reported by _count_discard
        elif self._loss_rng is not None:
            # Destroyed on the link outside the measurement window (the
            # only remaining way a forward leaves no trace in the plain
            # counters).
            self._report("loss", label, output_port, packet)

    def _deliver(self, index: int, output_port: int, packet: Packet) -> None:
        sink = self._exit_sinks[index][output_port]
        received_before = sink.received
        delivered_before = self.meters.delivered
        lost_before = self.meters.lost
        super()._deliver(index, output_port, packet)
        if sink.received != received_before:
            self._report(
                "deliver",
                "network",
                sink.port,
                packet,
                measured=self.meters.delivered != delivered_before,
            )
        else:
            # Destroyed on the exit link by fault injection.
            self._report(
                "loss",
                switch_label(self._last_stage, index),
                output_port,
                packet,
                measured=self.meters.lost != lost_before,
            )

    def _count_discard(self, packet: Packet) -> None:
        discarded_before = self.meters.discarded
        super()._count_discard(packet)
        self._discards += 1
        self._report(
            "drop",
            "network",
            -1,
            packet,
            measured=self.meters.discarded != discarded_before,
        )

    # -- checkpoints and runs ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Inherited snapshot plus whatever the observers save.

        A plain simulator's ``restore`` reads only the keys it knows, so
        observed and plain checkpoints stay mutually compatible.
        """
        state = super().snapshot()
        for observer in self.observers:
            observer.on_snapshot(state)
        return state

    def restore(self, state: dict[str, Any]) -> None:
        super().restore(state)
        for observer in self.observers:
            observer.on_restore(state)

    def run(
        self,
        warmup_cycles: int = 2000,
        measure_cycles: int = 10000,
        checkpoint_every: int | None = None,
        checkpoint_path: str | Path | None = None,
    ) -> SimulationResult:
        result = super().run(
            warmup_cycles,
            measure_cycles,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        for observer in self.observers:
            observer.on_finish(self)
        return result

    def observer(self, kind: type[O]) -> O | None:
        """The first attached observer of type ``kind``, if any."""
        return next(
            (each for each in self.observers if isinstance(each, kind)), None
        )
