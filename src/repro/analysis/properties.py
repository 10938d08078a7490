"""Safety properties and reference specifications for the model checker.

The checker (:mod:`repro.analysis.model`) drives every buffer
implementation in lockstep with a tiny *reference specification* defined
here — an obviously-correct queue model with none of the implementation's
machinery (no pointer registers, no cached length registers, no slot
pool).  After every atomic action the implementation's entire observable
surface is compared against the specification's, and the implementation's
own structural invariants are re-checked.  Because the checker explores
*all* interleavings exhaustively, any internal corruption that can ever
become visible (a reordered queue, a leaked slot, a stale register) is
caught on some path.

Two layers of checking live here:

* :class:`SpecBuffer` subclasses — the per-architecture reference
  specifications (FIFO / statically partitioned / dynamically shared).
* :func:`check_conformance` — implementation vs. specification, covering
  acceptance, head-of-line identity, per-queue FIFO order (via packet
  ids), queue lengths, occupancy accounting and retirement bookkeeping.
  It ends with the implementation's own ``check_invariants``; for the
  linked-list buffers that runs the one pointer-RAM walk,
  :meth:`~repro.core.linkedlist.SlotListManager.pointer_faults`, which
  trusts *no* cached register and reports wild pointers, pointer
  cycles, cross-links, retired-linked slots, stale registers and leaks
  (as an ``invariants`` violation naming the kind).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.core.buffer import SwitchBuffer
from repro.errors import ConfigurationError, InvariantError

__all__ = [
    "PropertyViolation",
    "SpecBuffer",
    "Violation",
    "check_conformance",
    "make_spec",
]


@dataclass(frozen=True)
class Violation:
    """One property violation found by the model checker.

    ``prop`` is a short stable identifier (``"fifo-order"``,
    ``"slot-leak"``, ...) suitable for tests and counterexample replay
    assertions; ``message`` is the human-readable diagnosis.
    """

    prop: str
    message: str
    kind: str = ""

    def render(self) -> str:
        label = f" [{self.kind}]" if self.kind else ""
        return f"{self.prop}{label}: {self.message}"


class PropertyViolation(Exception):
    """Raised by property checks; carries the structured violation.

    The transition system attaches the in-flight action so the search
    engine can append it to the counterexample trace.
    """

    def __init__(
        self,
        violation: Violation,
        action: tuple[Any, ...] | None = None,
    ) -> None:
        super().__init__(violation.render())
        self.violation = violation
        self.action = action


def _fail(prop: str, message: str, kind: str = "") -> PropertyViolation:
    return PropertyViolation(Violation(prop=prop, message=message, kind=kind))


# ----------------------------------------------------------------------
# Reference specifications
# ----------------------------------------------------------------------


class SpecBuffer(ABC):
    """Reference model of one buffer architecture (size-1 packets).

    Keeps per-queue sequences of packet *ids* — nothing else.  The model
    checker renumbers ids canonically after every transition (ids never
    influence buffer behaviour, so this relabeling is a bisimulation),
    which keeps the explored state space finite.
    """

    kind: str = "abstract"
    #: Packets the architecture can source per cycle (SAFC overrides).
    max_serves: int = 1

    def __init__(self, capacity: int, num_outputs: int) -> None:
        self.capacity = capacity
        self.num_outputs = num_outputs
        self._next_id = 0

    # -- write side ----------------------------------------------------

    @abstractmethod
    def can_accept(self, destination: int) -> bool:
        """Whether a one-slot packet for ``destination`` fits now."""

    @abstractmethod
    def push(self, destination: int) -> int:
        """Enqueue a new packet; returns the id assigned to it."""

    # -- read side -----------------------------------------------------

    @abstractmethod
    def peek(self, destination: int) -> int | None:
        """Id of the packet the buffer must offer for ``destination``."""

    @abstractmethod
    def pop(self, destination: int) -> int:
        """Dequeue and return the id :meth:`peek` exposes."""

    @abstractmethod
    def queue_length(self, destination: int) -> int:
        """Expected ``queue_length`` of the implementation."""

    # -- inspection ----------------------------------------------------

    @property
    @abstractmethod
    def occupancy(self) -> int:
        """Total slots in use."""

    @property
    @abstractmethod
    def retired_count(self) -> int:
        """Slots taken out of service by retirement."""

    @property
    def effective_capacity(self) -> int:
        return self.capacity - self.retired_count

    @property
    def free_slots(self) -> int:
        return self.effective_capacity - self.occupancy

    # -- graceful degradation ------------------------------------------

    @abstractmethod
    def can_retire(self) -> bool:
        """Whether ``retire_slot()`` must succeed in this state."""

    @abstractmethod
    def retire(self) -> None:
        """Mirror one successful ``retire_slot()`` call."""

    # -- canonicalization ----------------------------------------------

    @abstractmethod
    def key(self) -> tuple[Any, ...]:
        """Content-level canonical form (hashable, id-free)."""

    @abstractmethod
    def copy(self) -> "SpecBuffer":
        """Independent deep copy."""

    @abstractmethod
    def _sequences(self) -> list[list[int]]:
        """Mutable id sequences in canonical (queue, position) order."""

    def renumber(self) -> dict[int, int]:
        """Relabel all ids canonically; returns the old→new mapping."""
        mapping: dict[int, int] = {}
        for sequence in self._sequences():
            for position, old_id in enumerate(sequence):
                mapping[old_id] = len(mapping)
                sequence[position] = mapping[old_id]
        self._next_id = len(mapping)
        return mapping

    def fresh_id(self) -> int:
        """The id the next pushed packet will receive."""
        return self._next_id

    def _take_id(self) -> int:
        new_id = self._next_id
        self._next_id += 1
        return new_id


class SpecFifo(SpecBuffer):
    """One shared queue; only the head packet is visible."""

    kind = "FIFO"

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        self._queue: list[tuple[int, int]] = []  # (packet id, destination)
        self._retired = 0

    def can_accept(self, destination: int) -> bool:
        return self.occupancy + 1 <= self.effective_capacity

    def push(self, destination: int) -> int:
        new_id = self._take_id()
        self._queue.append((new_id, destination))
        return new_id

    def peek(self, destination: int) -> int | None:
        if not self._queue:
            return None
        head_id, head_destination = self._queue[0]
        return head_id if head_destination == destination else None

    def pop(self, destination: int) -> int:
        head_id = self.peek(destination)
        if head_id is None:
            raise _fail("spec-misuse", "pop from a queue with no head", self.kind)
        del self._queue[0]
        return head_id

    def queue_length(self, destination: int) -> int:
        # One queue: the whole occupancy counts toward the head's output.
        if self.peek(destination) is None:
            return 0
        return len(self._queue)

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    @property
    def retired_count(self) -> int:
        return self._retired

    def can_retire(self) -> bool:
        return self.effective_capacity > 1 and self.free_slots >= 1

    def retire(self) -> None:
        self._retired += 1

    def key(self) -> tuple[Any, ...]:
        return (
            self.kind,
            self._retired,
            tuple(destination for _, destination in self._queue),
        )

    def copy(self) -> "SpecFifo":
        duplicate = SpecFifo(self.capacity, self.num_outputs)
        duplicate._queue = list(self._queue)
        duplicate._retired = self._retired
        duplicate._next_id = self._next_id
        return duplicate

    def _sequences(self) -> list[list[int]]:
        # Renumbering needs write-through to the (id, destination) queue.
        return [_QueueView(self._queue)]


class _QueueView(list[int]):
    """Write-through id view over a FIFO's ``(id, destination)`` queue."""

    def __init__(self, queue: list[tuple[int, int]]) -> None:
        super().__init__(packet_id for packet_id, _ in queue)
        self._queue = queue

    def __setitem__(self, index: Any, value: Any) -> None:
        super().__setitem__(index, value)
        self._queue[index] = (value, self._queue[index][1])


class _MultiQueueSpec(SpecBuffer):
    """Shared base for the per-output-queue specifications."""

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        self._queues: list[list[int]] = [[] for _ in range(num_outputs)]

    def push(self, destination: int) -> int:
        new_id = self._take_id()
        self._queues[destination].append(new_id)
        return new_id

    def peek(self, destination: int) -> int | None:
        queue = self._queues[destination]
        return queue[0] if queue else None

    def pop(self, destination: int) -> int:
        queue = self._queues[destination]
        if not queue:
            raise _fail("spec-misuse", "pop from an empty queue", self.kind)
        return queue.pop(0)

    def queue_length(self, destination: int) -> int:
        return len(self._queues[destination])

    @property
    def occupancy(self) -> int:
        return sum(len(queue) for queue in self._queues)

    def _sequences(self) -> list[list[int]]:
        return self._queues

    def _copy_queues_into(self, duplicate: "_MultiQueueSpec") -> None:
        duplicate._queues = [list(queue) for queue in self._queues]
        duplicate._next_id = self._next_id


class SpecPartitioned(_MultiQueueSpec):
    """SAMQ/SAFC: per-output queues over statically partitioned slots."""

    kind = "SAMQ"

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        self.partition_capacity = capacity // num_outputs
        self._partition_retired = [0] * num_outputs

    def effective_partition_capacity(self, destination: int) -> int:
        return self.partition_capacity - self._partition_retired[destination]

    def can_accept(self, destination: int) -> bool:
        return (
            len(self._queues[destination]) + 1
            <= self.effective_partition_capacity(destination)
        )

    @property
    def retired_count(self) -> int:
        return sum(self._partition_retired)

    def _retire_target(self) -> int:
        # Mirrors SamqBuffer.retire_slot(None): the partition with the
        # most slots still in service, ties toward the lowest index.
        return max(
            range(self.num_outputs),
            key=lambda out: (self.effective_partition_capacity(out), -out),
        )

    def can_retire(self) -> bool:
        target = self._retire_target()
        free = self.effective_partition_capacity(target) - len(
            self._queues[target]
        )
        return free >= 1

    def retire(self) -> None:
        self._partition_retired[self._retire_target()] += 1

    def key(self) -> tuple[Any, ...]:
        return (
            self.kind,
            tuple(self._partition_retired),
            tuple(len(queue) for queue in self._queues),
        )

    def copy(self) -> "SpecPartitioned":
        duplicate = type(self)(self.capacity, self.num_outputs)
        self._copy_queues_into(duplicate)
        duplicate._partition_retired = list(self._partition_retired)
        return duplicate


class SpecSafc(SpecPartitioned):
    """SAFC: SAMQ partitioning with one read port per output."""

    kind = "SAFC"

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        self.max_serves = num_outputs


class SpecShared(_MultiQueueSpec):
    """DAMQ: per-output queues dynamically sharing the whole slot pool."""

    kind = "DAMQ"

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        self._retired = 0

    def can_accept(self, destination: int) -> bool:
        return self.free_slots >= 1

    @property
    def retired_count(self) -> int:
        return self._retired

    def can_retire(self) -> bool:
        # SlotListManager.retire_slot: needs a free slot and must not
        # consume the last usable one.
        return self.free_slots >= 1 and self.capacity - self._retired > 1

    def retire(self) -> None:
        self._retired += 1

    def key(self) -> tuple[Any, ...]:
        return (
            self.kind,
            self._retired,
            tuple(len(queue) for queue in self._queues),
        )

    def copy(self) -> "SpecShared":
        duplicate = SpecShared(self.capacity, self.num_outputs)
        self._copy_queues_into(duplicate)
        duplicate._retired = self._retired
        return duplicate


class SpecCrosspoint(SpecPartitioned):
    """CQ: dedicated per-crosspoint FIFOs, one read port per crosspoint.

    The slot algebra is SAMQ's (static partitioning); the read capability
    is SAFC's (every queue drainable in the same cycle).  What differs is
    the scheduling discipline around it, which the buffer specification
    does not model.
    """

    kind = "CQ"

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        self.max_serves = num_outputs


class SpecDamqReserved(_MultiQueueSpec):
    """DAMQ-RSV: dynamic sharing of the residual pool over per-output quotas.

    Mirrors :class:`repro.arch.damq_reserved.DamqReservedBuffer` with the
    default one-slot reservation: each output may always fill ``reserved``
    slots; demand beyond the quota is charged to a shared pool of
    ``capacity - num_outputs * reserved`` slots, shrunk by retirement.
    """

    kind = "DAMQ-RSV"

    def __init__(
        self, capacity: int, num_outputs: int, reserved: int = 1
    ) -> None:
        super().__init__(capacity, num_outputs)
        if capacity < num_outputs * reserved:
            raise ConfigurationError(
                f"capacity {capacity} cannot reserve {reserved} slot(s) for "
                f"each of {num_outputs} outputs"
            )
        self.reserved = reserved
        self._retired = 0

    @property
    def _shared_capacity(self) -> int:
        return self.capacity - self.num_outputs * self.reserved - self._retired

    @property
    def _shared_used(self) -> int:
        quota = self.reserved
        return sum(max(0, len(queue) - quota) for queue in self._queues)

    def can_accept(self, destination: int) -> bool:
        length = len(self._queues[destination])
        quota = self.reserved
        delta = max(0, length + 1 - quota) - max(0, length - quota)
        return self._shared_used + delta <= self._shared_capacity

    @property
    def retired_count(self) -> int:
        return self._retired

    def can_retire(self) -> bool:
        # DamqReservedBuffer.retire_slot: the shared pool must have a
        # spare slot (which also implies the underlying free list does).
        return self._shared_capacity - self._shared_used >= 1

    def retire(self) -> None:
        self._retired += 1

    def key(self) -> tuple[Any, ...]:
        return (
            self.kind,
            self._retired,
            tuple(len(queue) for queue in self._queues),
        )

    def copy(self) -> "SpecDamqReserved":
        duplicate = SpecDamqReserved(
            self.capacity, self.num_outputs, self.reserved
        )
        self._copy_queues_into(duplicate)
        duplicate._retired = self._retired
        return duplicate


_SPEC_TYPES: dict[str, type[SpecBuffer]] = {
    "FIFO": SpecFifo,
    "SAMQ": SpecPartitioned,
    "SAFC": SpecSafc,
    "DAMQ": SpecShared,
    "DAMQ-RSV": SpecDamqReserved,
    "CQ": SpecCrosspoint,
}


def make_spec(kind: str, capacity: int, num_outputs: int) -> SpecBuffer:
    """Build the reference specification for one architecture."""
    try:
        spec_class = _SPEC_TYPES[kind.upper()]
    except KeyError:
        raise ConfigurationError(
            f"no specification for buffer kind {kind!r}"
        ) from None
    return spec_class(capacity, num_outputs)


# ----------------------------------------------------------------------
# Per-state checks
# ----------------------------------------------------------------------


def expected_observable(spec: SpecBuffer) -> dict[str, Any]:
    """The observable state a conforming implementation must exhibit."""
    return {
        "kind": spec.kind,
        "occupancy": spec.occupancy,
        "retired": spec.retired_count,
        "accepts": [
            spec.can_accept(destination)
            for destination in range(spec.num_outputs)
        ],
        "heads": [
            spec.peek(destination) for destination in range(spec.num_outputs)
        ],
        "lengths": [
            spec.queue_length(destination)
            for destination in range(spec.num_outputs)
        ],
    }


def check_conformance(implementation: SwitchBuffer, spec: SpecBuffer) -> None:
    """Implementation ≍ specification on the whole observable surface.

    Raises :class:`PropertyViolation` on the first divergence.  Also
    re-runs the implementation's own ``check_invariants`` (converting an
    :class:`InvariantError` into a violation) and validates the live
    length-register row and the aggregate occupancy bound.
    """
    kind = spec.kind
    expected = expected_observable(spec)
    actual = implementation.observable_state()
    if actual != expected:
        differing = sorted(
            field
            for field in expected
            if actual.get(field) != expected[field]
        )
        raise _fail(
            "conformance",
            f"observable state diverges from specification on "
            f"{differing}: expected {expected}, got {actual}",
            kind,
        )
    live_row = list(implementation.queue_lengths())
    if live_row != expected["lengths"]:
        raise _fail(
            "length-registers",
            f"live queue_lengths() row {live_row} != per-output reads "
            f"{expected['lengths']}",
            kind,
        )
    if implementation.occupancy > implementation.effective_capacity:
        raise _fail(
            "occupancy-bound",
            f"occupancy {implementation.occupancy} exceeds effective "
            f"capacity {implementation.effective_capacity}",
            kind,
        )
    stored = implementation.packets()
    if len(stored) != spec.occupancy:
        raise _fail(
            "packet-accounting",
            f"buffer reports {len(stored)} stored packets, specification "
            f"holds {spec.occupancy}",
            kind,
        )
    try:
        implementation.check_invariants()
    except InvariantError as error:
        raise _fail("invariants", str(error), kind) from error
