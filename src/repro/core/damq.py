"""The dynamically allocated multi-queue (DAMQ) buffer — the contribution.

One FIFO queue per output port, all sharing a single pool of slots through
the linked-list register machinery of Section 3.1
(:class:`repro.core.linkedlist.SlotListManager`).  The buffer therefore

* never blocks a packet behind one bound for a busy output (non-FIFO
  forwarding across queues, FIFO order within each queue), and
* applies every free slot to whichever packet arrives next (no static
  partitioning, so no rejections while other partitions sit empty).

This class is the packet-granularity model used by the network simulator;
the byte-granularity hardware model lives in :mod:`repro.chip`.
"""

from __future__ import annotations

from typing import Any

from repro.core.buffer import SwitchBuffer
from repro.core.linkedlist import SlotListManager
from repro.core.packet import Packet
from repro.errors import (
    BufferEmptyError,
    BufferFullError,
    ConfigurationError,
    InvariantError,
)

__all__ = ["DamqBuffer"]


class DamqBuffer(SwitchBuffer):
    """Per-output linked-list queues dynamically sharing one slot pool.

    The implementation deliberately routes every operation through the
    hardware-faithful :class:`SlotListManager` (head/tail/pointer
    registers) rather than Python lists, so the structural invariants the
    paper's controller maintains — slot conservation, FIFO order within a
    list, free-list recycling — are the same ones our property tests check.
    """

    kind = "DAMQ"
    lengths_are_live = True

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        self._lists = SlotListManager(num_slots=capacity, num_lists=num_outputs)
        # Slot contents: the "data RAM" next to the pointer-register file.
        self._slot_packet: list[Packet | None] = [None] * capacity
        # Packets (not slots) per destination queue, kept incrementally so
        # the arbiter's longest-queue scan is O(1) per queue.
        self._packet_counts = [0] * num_outputs

    # -- write side ------------------------------------------------------

    def can_accept(self, destination: int, size: int = 1) -> bool:
        if not 0 <= destination < self.num_outputs:
            self._check_output(destination)
        return self._lists.free_count >= size

    def push(self, packet: Packet, destination: int) -> None:
        if not 0 <= destination < self.num_outputs:
            self._check_output(destination)
        if self._lists.free_count < packet.size:
            raise BufferFullError(
                f"DAMQ buffer out of slots ({self._lists.free_count} free, "
                f"packet needs {packet.size})"
            )
        # A multi-slot packet occupies consecutive *list* positions (its
        # slots are chained on the same destination list), mirroring how
        # the chip spreads a long packet over several 8-byte slots.
        first_slot = self._lists.allocate(destination)
        self._slot_packet[first_slot] = packet
        for _ in range(packet.size - 1):
            continuation = self._lists.allocate(destination)
            self._slot_packet[continuation] = packet
        self._packet_counts[destination] += 1

    # -- read side -------------------------------------------------------

    def peek(self, destination: int) -> Packet | None:
        if not 0 <= destination < self.num_outputs:
            self._check_output(destination)
        # Hot path for the arbiter: read the head register directly rather
        # than going through the empty-list/free-list indirection.
        if self._packet_counts[destination] == 0:
            return None
        return self._slot_packet[self._lists._head[destination]]

    def pop(self, destination: int) -> Packet:
        if not 0 <= destination < self.num_outputs:
            self._check_output(destination)
        # Same head-register fast path as peek: packet count zero is
        # exactly the list-empty condition.
        if self._packet_counts[destination] == 0:
            raise BufferEmptyError(f"DAMQ queue for output {destination} empty")
        packet = self._slot_packet[self._lists._head[destination]]
        if packet is None:
            raise InvariantError(
                f"DAMQ head slot of queue {destination} holds no packet"
            )
        for _ in range(packet.size):
            slot = self._lists.release_head(destination)
            self._slot_packet[slot] = None
        self._packet_counts[destination] -= 1
        return packet

    def queue_length(self, destination: int) -> int:
        """Packets queued for ``destination`` (not slots: a size-2 packet
        counts once, matching how the arbiter reasons about queues)."""
        self._check_output(destination)
        return self._packet_counts[destination]

    def queue_lengths(self) -> list[int]:
        # The live register file; callers treat it as read-only.
        return self._packet_counts

    # -- graceful degradation ----------------------------------------------

    def retire_slot(self) -> None:
        """Retire one free slot from the shared pool.

        Unlike the statically partitioned buffers, the DAMQ design loses
        nothing but raw capacity: every surviving slot remains available
        to every destination queue.
        """
        self._lists.retire_slot()

    @property
    def retired_count(self) -> int:
        return self._lists.retired_count

    # -- inspection --------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return self._lists.occupancy()

    def logical_queues(self) -> list[list[Packet]]:
        # A multi-slot packet's slots are consecutive on its list.
        queues: list[list[Packet]] = []
        for output in range(self.num_outputs):
            queue: list[Packet] = []
            for slot in self._lists.slots(output):
                packet = self._slot_packet[slot]
                if packet is None:
                    raise InvariantError(
                        f"allocated slot {slot} holds no packet"
                    )
                if not queue or queue[-1].packet_id != packet.packet_id:
                    queue.append(packet)
            queues.append(queue)
        return queues

    # -- checkpoint serialization ------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        return {
            "lists": self._lists.snapshot_state(),
            # The data RAM, slot by slot.  A multi-slot packet appears
            # once per occupied slot; restore re-shares by packet id.
            "slots": [
                packet.to_state() if packet is not None else None
                for packet in self._slot_packet
            ],
            "retired_slots": self._retired_slots,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._lists.restore_state(state["lists"])
        # Rebuild the data RAM, re-sharing one Packet object across the
        # slots of a multi-slot packet (pop identity-checks against the
        # arbiter's grant, so aliasing must be preserved).
        by_id: dict[int, Packet] = {}
        for slot, packet_state in enumerate(state["slots"]):
            if packet_state is None:
                self._slot_packet[slot] = None
                continue
            packet = by_id.get(packet_state["packet_id"])
            if packet is None:
                packet = Packet.from_state(packet_state)
                by_id[packet.packet_id] = packet
            self._slot_packet[slot] = packet
        # Derived register: unique packets per destination list (mutated
        # in place — the switch holds a live reference).
        for output in range(self.num_outputs):
            seen: set[int] = set()
            for slot in self._lists.slots(output):
                packet = self._slot_packet[slot]
                if packet is not None:
                    seen.add(packet.packet_id)
            self._packet_counts[output] = len(seen)
        self._retired_slots = state["retired_slots"]

    def canonical_state(self) -> tuple[Any, ...]:
        # Exact physical layout (register file) plus the per-list packet
        # shape: consecutive slots of one multi-slot packet are grouped,
        # so the value records packet sizes in queue order per list.
        # Packet ids are excluded (renumbered by the model checker).
        sizes: list[tuple[int, ...]] = []
        for output in range(self.num_outputs):
            shape: list[int] = []
            previous_id: int | None = None
            for slot in self._lists.slots(output):
                packet = self._slot_packet[slot]
                if packet is None:
                    raise InvariantError(
                        f"allocated slot {slot} holds no packet"
                    )
                if packet.packet_id != previous_id:
                    shape.append(packet.size)
                    previous_id = packet.packet_id
            sizes.append(tuple(shape))
        return (
            self.kind,
            self.capacity,
            self.num_outputs,
            self._lists.canonical_state(),
            tuple(sizes),
        )

    def check_invariants(self) -> None:
        """Structural self-check delegated to the register-file model.

        Raises :class:`InvariantError` on corruption.
        """
        self._lists.check_invariants()
        for output in range(self.num_outputs):
            packet_ids = set()
            for slot in self._lists.slots(output):
                packet = self._slot_packet[slot]
                if packet is None:
                    raise InvariantError(
                        f"allocated slot {slot} holds no packet"
                    )
                packet_ids.add(packet.packet_id)
            if len(packet_ids) != self._packet_counts[output]:
                raise InvariantError(
                    f"queue {output}: cached count "
                    f"{self._packet_counts[output]} != actual "
                    f"{len(packet_ids)}"
                )
        for slot in self._lists.free_slots():
            if self._slot_packet[slot] is not None:
                raise InvariantError(f"free slot {slot} still holds a packet")
        for slot in self._lists.retired_slots():
            if self._slot_packet[slot] is not None:
                raise InvariantError(
                    f"retired slot {slot} still holds a packet"
                )

    def _check_output(self, destination: int) -> None:
        if not 0 <= destination < self.num_outputs:
            raise ConfigurationError(
                f"output {destination} out of range [0, {self.num_outputs})"
            )
