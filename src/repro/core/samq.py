"""The statically allocated multi-queue (SAMQ) buffer (Figure 1c).

One FIFO queue per output port inside a single buffer, with the slot pool
*statically* partitioned: each output owns ``capacity / num_outputs`` slots
regardless of demand.  A single read port, so the buffer can feed at most
one output per cycle (unlike SAFC).  Cheaper than SAFC — the switch needs
only a plain crossbar — but packets are rejected whenever their partition
is full, even while other partitions sit empty.
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

__all__ = ["SamqBuffer"]


class SamqBuffer(SwitchBuffer):
    """Statically partitioned per-output queues behind one read port."""

    kind = "SAMQ"
    lengths_are_live = True

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        if capacity % num_outputs != 0:
            # The paper notes SAMQ/SAFC buffers "can only have an even
            # number of slots" in the 2x2 case: the partition must divide.
            raise ConfigurationError(
                f"SAMQ capacity {capacity} is not divisible by "
                f"{num_outputs} output ports"
            )
        self.partition_capacity = capacity // num_outputs
        self._queues: list[deque[Packet]] = [deque() for _ in range(num_outputs)]
        self._used: list[int] = [0] * num_outputs
        # Packets per queue, kept incrementally: the live register file
        # behind queue_lengths().
        self._counts: list[int] = [0] * num_outputs
        # Slots retired per partition (static partitioning means a failed
        # slot shrinks exactly one output's share).
        self._partition_retired: list[int] = [0] * num_outputs

    # -- write side ------------------------------------------------------

    def effective_partition_capacity(self, destination: int) -> int:
        """Slots of one partition still in service after retirement."""
        self._check_output(destination)
        return self.partition_capacity - self._partition_retired[destination]

    def can_accept(self, destination: int, size: int = 1) -> bool:
        self._check_output(destination)
        return (
            self._used[destination] + size
            <= self.effective_partition_capacity(destination)
        )

    def push(self, packet: Packet, destination: int) -> None:
        self._check_output(destination)
        limit = self.effective_partition_capacity(destination)
        if self._used[destination] + packet.size > limit:
            raise BufferFullError(
                f"{self.kind} partition for output {destination} full "
                f"({self._used[destination]}/{limit})"
            )
        self._queues[destination].append(packet)
        self._used[destination] += packet.size
        self._counts[destination] += 1

    # -- read side -------------------------------------------------------

    def peek(self, destination: int) -> Packet | None:
        self._check_output(destination)
        queue = self._queues[destination]
        return queue[0] if queue else None

    def pop(self, destination: int) -> Packet:
        self._check_output(destination)
        queue = self._queues[destination]
        if not queue:
            raise BufferEmptyError(
                f"{self.kind} queue for output {destination} empty"
            )
        packet = queue.popleft()
        self._used[destination] -= packet.size
        self._counts[destination] -= 1
        return packet

    def queue_length(self, destination: int) -> int:
        self._check_output(destination)
        return len(self._queues[destination])

    def queue_lengths(self) -> list[int]:
        # The live register file; callers treat it as read-only.
        return self._counts

    # -- graceful degradation ----------------------------------------------

    def retire_slot(self, partition: int | None = None) -> int:
        """Retire one free slot; returns the partition it came from.

        With ``partition=None`` the slot is taken from the partition with
        the most slots still in service (ties broken toward the lowest
        index), spreading hard failures evenly — the statically
        partitioned hardware cannot reassign a surviving slot to another
        output, so the failed partition simply shrinks.
        """
        if partition is None:
            partition = max(
                range(self.num_outputs),
                key=lambda out: (
                    self.effective_partition_capacity(out),
                    -out,
                ),
            )
        self._check_output(partition)
        remaining = self.effective_partition_capacity(partition)
        if remaining - self._used[partition] < 1:
            raise FaultError(
                f"partition {partition} has no free slot to retire"
            )
        self._partition_retired[partition] += 1
        self._retired_slots += 1
        return partition

    # -- inspection --------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(self._used)

    def partition_occupancy(self, destination: int) -> int:
        """Slots used inside one static partition."""
        self._check_output(destination)
        return self._used[destination]

    def logical_queues(self) -> list[list[Packet]]:
        return [list(queue) for queue in self._queues]

    # -- checkpoint serialization ------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        return {
            "queues": [
                [packet.to_state() for packet in queue]
                for queue in self._queues
            ],
            "partition_retired": list(self._partition_retired),
            "retired_slots": self._retired_slots,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        for destination, packet_states in enumerate(state["queues"]):
            queue = self._queues[destination]
            queue.clear()
            used = 0
            for packet_state in packet_states:
                packet = Packet.from_state(packet_state)
                queue.append(packet)
                used += packet.size
            # In-place updates: the switch's live-length view references
            # the _counts list.
            self._used[destination] = used
            self._counts[destination] = len(queue)
        self._partition_retired[:] = state["partition_retired"]
        self._retired_slots = state["retired_slots"]

    def canonical_state(self) -> tuple[Any, ...]:
        # Per-partition queues in order, packets identified by size only
        # (ids are renumbered canonically by the model checker).  ``kind``
        # distinguishes SAMQ from SAFC, whose read-port width differs.
        return (
            self.kind,
            self.capacity,
            self.num_outputs,
            tuple(self._partition_retired),
            tuple(
                tuple(packet.size for packet in queue)
                for queue in self._queues
            ),
        )

    def check_invariants(self) -> None:
        for destination, queue in enumerate(self._queues):
            if len(queue) != self._counts[destination]:
                raise InvariantError(
                    f"{self.kind} queue {destination}: cached count "
                    f"{self._counts[destination]} != actual {len(queue)}"
                )
            total = sum(packet.size for packet in queue)
            if total != self._used[destination]:
                raise InvariantError(
                    f"{self.kind} partition {destination}: occupancy register "
                    f"{self._used[destination]} != queued sizes {total}"
                )
            limit = self.effective_partition_capacity(destination)
            if self._used[destination] > limit:
                raise InvariantError(
                    f"{self.kind} partition {destination} holds "
                    f"{self._used[destination]} slots but only {limit} are "
                    f"in service"
                )

    def _check_output(self, destination: int) -> None:
        if not 0 <= destination < self.num_outputs:
            raise ConfigurationError(
                f"output {destination} out of range [0, {self.num_outputs})"
            )
