"""The FIFO input buffer — the paper's "control" design (Figure 1a).

A single first-in-first-out queue with one write port and one read port.
Simple to build and trivially correct for variable-length packets, but the
head-of-line packet blocks everything behind it whenever its output port is
busy — the deficiency the DAMQ buffer removes.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.buffer import SwitchBuffer
from repro.core.packet import Packet
from repro.errors import (
    BufferEmptyError,
    BufferFullError,
    ConfigurationError,
    FaultError,
    InvariantError,
)

__all__ = ["FifoBuffer"]


class FifoBuffer(SwitchBuffer):
    """Single FIFO queue shared by all output ports."""

    kind = "FIFO"
    lengths_are_live = True

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        self._queue: deque[tuple[Packet, int]] = deque()
        self._used = 0
        # Live register file behind queue_lengths(): the whole occupancy
        # attributed to the head packet's destination, zero elsewhere.
        self._lengths = [0] * num_outputs

    # -- write side ------------------------------------------------------

    def can_accept(self, destination: int, size: int = 1) -> bool:
        if not 0 <= destination < self.num_outputs:
            self._check_output(destination)
        return self._used + size <= self.effective_capacity

    def push(self, packet: Packet, destination: int) -> None:
        self._check_output(destination)
        if self._used + packet.size > self.effective_capacity:
            raise BufferFullError(
                f"FIFO buffer full ({self._used}/{self.effective_capacity} "
                f"slots)"
            )
        self._queue.append((packet, destination))
        self._used += packet.size
        # The head's destination absorbs the new occupancy (the head only
        # changes on push when the queue was empty).
        self._lengths[self._queue[0][1]] = self._used

    # -- read side -------------------------------------------------------

    def peek(self, destination: int) -> Packet | None:
        if not 0 <= destination < self.num_outputs:
            self._check_output(destination)
        if not self._queue:
            return None
        head, head_destination = self._queue[0]
        return head if head_destination == destination else None

    def pop(self, destination: int) -> Packet:
        packet = self.peek(destination)
        if packet is None:
            raise BufferEmptyError(
                f"no head-of-line packet for output {destination}"
            )
        self._queue.popleft()
        self._used -= packet.size
        # peek() returning a packet means the old head targeted
        # ``destination``; hand the register to the new head (if any).
        self._lengths[destination] = 0
        if self._queue:
            self._lengths[self._queue[0][1]] = self._used
        return packet

    def queue_length(self, destination: int) -> int:
        """Whole occupancy if the head packet targets ``destination``.

        A FIFO buffer is one queue; for the "longest queue" arbitration
        rule its length counts toward whichever output its head packet is
        routed to, since that is the only packet it can offer.
        """
        if self.peek(destination) is None:
            return 0
        return self._used

    def queue_lengths(self) -> list[int]:
        # The live register file; callers treat it as read-only.
        return self._lengths

    def head_destination(self) -> int | None:
        """Local output of the head-of-line packet (``None`` if empty)."""
        if not self._queue:
            return None
        return self._queue[0][1]

    # -- graceful degradation ----------------------------------------------

    def retire_slot(self) -> None:
        if self.effective_capacity <= 1:
            raise FaultError("cannot retire the last usable FIFO slot")
        if self.free_slots < 1:
            raise FaultError("no free FIFO slot available to retire")
        self._retired_slots += 1

    # -- inspection --------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return self._used

    def logical_queues(self) -> list[list[Packet]]:
        return [[packet for packet, _ in self._queue]]

    # -- checkpoint serialization ------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        return {
            "queue": [
                [packet.to_state(), destination]
                for packet, destination in self._queue
            ],
            "retired_slots": self._retired_slots,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._queue.clear()
        self._used = 0
        for packet_state, destination in state["queue"]:
            packet = Packet.from_state(packet_state)
            self._queue.append((packet, destination))
            self._used += packet.size
        # Derived exactly as push/pop maintain it: the whole occupancy
        # attributed to the head packet's destination (mutated in place —
        # the switch holds a live reference to this list).
        for output in range(self.num_outputs):
            self._lengths[output] = 0
        if self._queue:
            self._lengths[self._queue[0][1]] = self._used
        self._retired_slots = state["retired_slots"]

    def canonical_state(self) -> tuple[Any, ...]:
        # The single queue in order, identified by (destination, size):
        # packet ids are renumbered by the model checker, so they carry
        # no information here.
        return (
            self.kind,
            self.capacity,
            self.num_outputs,
            self._retired_slots,
            tuple(
                (destination, packet.size)
                for packet, destination in self._queue
            ),
        )

    def check_invariants(self) -> None:
        total = sum(packet.size for packet, _ in self._queue)
        if total != self._used:
            raise InvariantError(
                f"FIFO occupancy register {self._used} != queued sizes {total}"
            )
        expected = [0] * self.num_outputs
        if self._queue:
            expected[self._queue[0][1]] = self._used
        if self._lengths != expected:
            raise InvariantError(
                f"FIFO length registers {self._lengths} != expected {expected}"
            )
        if self._used > self.effective_capacity:
            raise InvariantError(
                f"FIFO holds {self._used} slots but only "
                f"{self.effective_capacity} are in service"
            )

    def _check_output(self, destination: int) -> None:
        if not 0 <= destination < self.num_outputs:
            raise ConfigurationError(
                f"output {destination} out of range [0, {self.num_outputs})"
            )
