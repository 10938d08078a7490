"""Runtime "hardware sanitizer" for the buffer models (ASan/TSan spirit).

The Section 3.1 micro-architecture constrains what the DAMQ buffer's
register file can physically do in one clock: the slot pool has **one
write port** and a bounded number of read ports (one for FIFO/SAMQ/DAMQ,
one per output for SAFC), and every slot is threaded on **exactly one**
linked list (a destination list, the free list, or — after a hard fault —
retired limbo).  A modeling bug that violates either constraint produces
results no chip could, while still looking statistically plausible.

:class:`HardwareSanitizer` is the :class:`~repro.instrument.Observer`
that checks those constraints while a simulation runs:

* **Slot lifecycle** — a state machine per slot (free / in-use / retired)
  driven by the slot manager's choke points reports *use-after-free* (the
  free list handed out a slot still in use) and *double-free* (a slot
  already free appended to the free list again), each with the slot's
  recent operation trace.
* **Pointer RAM structure** — :meth:`HardwareSanitizer.scan` records
  the findings of the slot manager's own register-file walk,
  :meth:`~repro.core.linkedlist.SlotListManager.pointer_faults`:
  *wild pointers* (out-of-range), *pointer cycles*, *cross-links* (one
  slot on two lists), *retired-linked* slots, *stale registers* (a
  length or tail register that disagrees with its chain) and *pointer
  leaks* (unreachable live slots).
* **Port bandwidth** — enqueues and dequeues are counted per simulated
  cycle and buffer; *write-port-overrun* / *read-port-overrun* is
  reported the moment a buffer performs more RAM accesses in one network
  cycle than its port budget allows.  (At the packet granularity of the
  network model, the paper's 12-clock network cycle — 8 transmit + 4
  route — admits at most one packet through the single write port and
  one per read port, which is the budget enforced here.)

The sanitizer only *observes*: it draws nothing from any RNG and never
changes model behaviour, so sanitized runs stay bit-identical to plain
ones.  Enable it with ``REPRO_SANITIZE=1`` (honoured by
:func:`repro.network.simulator.simulate` and the experiment stack,
including parallel workers), with ``make_simulator(config,
sanitize=True)``, or by passing one to
:class:`~repro.instrument.ObservedOmegaNetworkSimulator`; attach it to a
standalone component with :func:`~repro.instrument.observe`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.buffer import SwitchBuffer
from repro.core.linkedlist import SlotListManager
from repro.core.packet import Packet
from repro.errors import ConfigurationError, SanitizerError
from repro.instrument import Observer
from repro.network.simulator import OmegaNetworkSimulator

__all__ = ["HardwareSanitizer", "Violation"]

#: Write ports per buffer pool (Section 3.1: one write per clock).
WRITE_PORTS = 1

#: Recent operations kept per slot / per buffer for violation traces.
TRACE_DEPTH = 8

# Slot lifecycle states tracked per slot manager.
_FREE, _IN_USE, _RETIRED = 0, 1, 2
_STATE_NAMES = {_FREE: "free", _IN_USE: "in-use", _RETIRED: "retired"}


@dataclass(frozen=True)
class Violation:
    """One detected hardware-model violation.

    ``trace`` holds the most recent operations on the offending slot or
    buffer (oldest first), each formatted as ``"cycle N: op"``.
    """

    kind: str
    buffer: str
    cycle: int
    message: str
    slot: int | None = None
    trace: tuple[str, ...] = ()

    def render(self) -> str:
        """One-line human-readable form."""
        where = f" slot {self.slot}" if self.slot is not None else ""
        text = (
            f"[{self.kind}] {self.buffer}{where} @cycle {self.cycle}: "
            f"{self.message}"
        )
        if self.trace:
            text += "\n    trace: " + "; ".join(self.trace)
        return text

    def as_dict(self) -> dict[str, Any]:
        """JSON-able representation."""
        return {
            "kind": self.kind,
            "buffer": self.buffer,
            "cycle": self.cycle,
            "slot": self.slot,
            "message": self.message,
            "trace": list(self.trace),
        }


@dataclass
class _Ports:
    """Per-buffer port accounting for the current cycle.

    The counters reset lazily on the first access of a new cycle, so idle
    buffers cost nothing.
    """

    label: str
    stamp: int = -1
    writes: int = 0
    reads: int = 0
    trace: deque[str] = field(default_factory=lambda: deque(maxlen=TRACE_DEPTH))


@dataclass
class _Slots:
    """Per-manager slot lifecycle state and per-slot operation history."""

    label: str
    state: list[int]
    history: list[deque[str]]


def _derive_states(manager: SlotListManager) -> list[int]:
    """Slot states read off the register file (adoption and restore)."""
    state = [_IN_USE] * manager.num_slots
    for slot in manager.free_slots():
        state[slot] = _FREE
    for slot in manager.retired_slots():
        state[slot] = _RETIRED
    return state


class HardwareSanitizer(Observer):
    """Collects violations from every sanitized component of one run.

    The sanitizer never raises from inside the model — it records and
    keeps going, exactly like ASan's ``halt_on_error=0`` mode — so a
    single corruption produces a full report instead of a stack trace.
    Callers inspect :attr:`violations` (or :meth:`assert_clean`, which
    raises :class:`~repro.errors.SanitizerError` listing everything).
    """

    def __init__(self, max_violations: int = 1000) -> None:
        if max_violations < 1:
            raise ConfigurationError("sanitizer needs room for one violation")
        #: Simulated cycle stamp; advanced by the simulator each step.
        self.cycle = 0
        self.violations: list[Violation] = []
        #: Violations not recorded because ``max_violations`` was reached.
        self.dropped = 0
        self._max_violations = max_violations
        self._ports: dict[SwitchBuffer, _Ports] = {}
        self._slots: dict[SlotListManager, _Slots] = {}

    # -- recording -------------------------------------------------------

    def record(
        self,
        kind: str,
        buffer: str,
        message: str,
        slot: int | None = None,
        trace: tuple[str, ...] = (),
    ) -> None:
        """Record one violation (dropped beyond ``max_violations``)."""
        if len(self.violations) >= self._max_violations:
            self.dropped += 1
            return
        self.violations.append(
            Violation(
                kind=kind,
                buffer=buffer,
                cycle=self.cycle,
                message=message,
                slot=slot,
                trace=trace,
            )
        )

    # -- observer hooks ----------------------------------------------------

    def attach(self, component: Any, label: str) -> None:
        if isinstance(component, SwitchBuffer):
            self._ports[component] = _Ports(label)
        elif isinstance(component, SlotListManager):
            self._slots[component] = _Slots(
                label,
                _derive_states(component),
                [deque(maxlen=TRACE_DEPTH) for _ in range(component.num_slots)],
            )

    def on_cycle(self, cycle: int) -> None:
        self.cycle = cycle

    def _count_port(self, buffer: SwitchBuffer) -> _Ports:
        ports = self._ports[buffer]
        if ports.stamp != self.cycle:
            ports.stamp = self.cycle
            ports.writes = 0
            ports.reads = 0
        return ports

    def on_push(
        self, buffer: SwitchBuffer, packet: Packet, destination: int
    ) -> None:
        ports = self._count_port(buffer)
        ports.writes += 1
        ports.trace.append(
            f"cycle {self.cycle}: push(dest={destination}, size={packet.size})"
        )
        if ports.writes > WRITE_PORTS:
            self.record(
                "write-port-overrun",
                ports.label,
                f"{ports.writes} enqueues in one network cycle exceed the "
                f"buffer pool's single write port",
                trace=tuple(ports.trace),
            )

    def on_pop(
        self, buffer: SwitchBuffer, packet: Packet, destination: int
    ) -> None:
        ports = self._count_port(buffer)
        ports.reads += 1
        ports.trace.append(
            f"cycle {self.cycle}: pop(dest={destination}, size={packet.size})"
        )
        budget = buffer.max_reads_per_cycle
        if ports.reads > budget:
            self.record(
                "read-port-overrun",
                ports.label,
                f"{ports.reads} dequeues in one network cycle exceed the "
                f"buffer's {budget} read port(s)",
                trace=tuple(ports.trace),
            )

    def on_slot(
        self, manager: SlotListManager, op: str, slot: int, list_id: int
    ) -> None:
        table = self._slots[manager]
        if op == "restore":
            # Checkpoints carry only the hardware registers: rebuild the
            # lifecycle state machine exactly as adoption builds it.
            table.state = _derive_states(manager)
            return
        if not 0 <= slot < manager.num_slots:
            return
        history = table.history[slot]
        state = table.state[slot]
        if op == "alloc":
            if state != _FREE:
                history.append(
                    f"cycle {self.cycle}: allocate(list={list_id}) [VIOLATION]"
                )
                self.record(
                    "use-after-free",
                    table.label,
                    f"free list handed out slot {slot} while it is "
                    f"{_STATE_NAMES[state]}: the previous owner's data "
                    f"would be clobbered",
                    slot=slot,
                    trace=tuple(history),
                )
            else:
                history.append(f"cycle {self.cycle}: allocate(list={list_id})")
            table.state[slot] = _IN_USE
        elif op == "free":
            if state == _FREE:
                history.append(f"cycle {self.cycle}: free [VIOLATION]")
                self.record(
                    "double-free",
                    table.label,
                    f"slot {slot} appended to the free list while already "
                    f"free: the free list now aliases itself",
                    slot=slot,
                    trace=tuple(history),
                )
            else:
                history.append(f"cycle {self.cycle}: free")
            table.state[slot] = _FREE
        elif op == "retire":
            history.append(f"cycle {self.cycle}: retire")
            table.state[slot] = _RETIRED

    def on_finish(self, simulator: OmegaNetworkSimulator) -> None:
        self.scan()

    # -- structural scans --------------------------------------------------

    def scan(self) -> int:
        """Deep pointer-RAM scan of every observed slot manager.

        Records every finding of
        :meth:`~repro.core.linkedlist.SlotListManager.pointer_faults`
        (read-only: the walk never mutates the register file), with the
        offending slot's recent history as its trace.  Returns the number
        of new violations recorded.
        """
        before = len(self.violations) + self.dropped
        for manager, table in self._slots.items():
            for kind, slot, message in manager.pointer_faults():
                trace = () if slot is None else tuple(table.history[slot])
                self.record(kind, table.label, message, slot, trace)
        return len(self.violations) + self.dropped - before

    # -- reporting ---------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when no violation has been recorded."""
        return not self.violations and not self.dropped

    def report(self) -> dict[str, Any]:
        """JSON-able summary of the run's violations."""
        return {
            "clean": self.clean,
            "violations": [violation.as_dict() for violation in self.violations],
            "dropped": self.dropped,
            "buffers": len(self._ports),
        }

    def render(self) -> str:
        """Human-readable report."""
        if self.clean:
            return (
                f"sanitizer clean: 0 violations across "
                f"{len(self._ports)} buffer(s)"
            )
        lines = [violation.render() for violation in self.violations]
        lines.append(
            f"{len(self.violations)} violation(s)"
            + (f" (+{self.dropped} dropped)" if self.dropped else "")
        )
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`~repro.errors.SanitizerError` on any violation."""
        if not self.clean:
            raise SanitizerError(self.render())
