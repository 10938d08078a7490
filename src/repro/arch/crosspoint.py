"""Crosspoint-queued (CQ) buffering (arXiv 1403.2098 lineage).

A crosspoint-queued switch places a small dedicated buffer at every
crosspoint of the fabric: input ``i`` sees one private FIFO per output
``o``, with no sharing between crosspoints and no speedup requirement on
any single memory.  Mapped onto this library's per-input
:class:`~repro.core.buffer.SwitchBuffer` model, one ``CrosspointBuffer``
is the row of crosspoints belonging to one input: ``num_outputs``
independent FIFOs of ``capacity / num_outputs`` slots each, every one of
them readable in the same cycle (each crosspoint has its own read port,
so ``max_reads_per_cycle == num_outputs``, like SAFC).

Structurally this resembles SAMQ-with-full-fanout, but the scheduling
story differs: CQ switches pair the dedicated crosspoint memories with
per-output schedulers (longest queue first, or round robin) that decide
*locally* which crosspoint each output drains — see
:class:`repro.arch.schedulers.CrosspointScheduler`.  Slot retirement is
per-crosspoint: a failed slot shrinks exactly one crosspoint FIFO, as in
the statically partitioned hardware.
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

__all__ = ["CrosspointBuffer"]


class CrosspointBuffer(SwitchBuffer):
    """One input's row of dedicated per-output crosspoint FIFOs."""

    kind = "CQ"
    lengths_are_live = True

    def __init__(self, capacity: int, num_outputs: int) -> None:
        super().__init__(capacity, num_outputs)
        if capacity % num_outputs != 0:
            raise ConfigurationError(
                f"CQ capacity {capacity} is not divisible by "
                f"{num_outputs} crosspoints"
            )
        self.crosspoint_capacity = capacity // num_outputs
        # Every crosspoint memory has its own read port.
        self.max_reads_per_cycle = num_outputs
        self._queues: list[deque[Packet]] = [deque() for _ in range(num_outputs)]
        self._used: list[int] = [0] * num_outputs
        # Packets per crosspoint, kept incrementally: the live register
        # file behind queue_lengths().
        self._counts: list[int] = [0] * num_outputs
        # Slots retired per crosspoint (dedicated memories mean a failed
        # slot shrinks exactly one crosspoint FIFO).
        self._crosspoint_retired: list[int] = [0] * num_outputs

    # -- write side ------------------------------------------------------

    def effective_crosspoint_capacity(self, destination: int) -> int:
        """Slots of one crosspoint FIFO still in service after retirement."""
        self._check_output(destination)
        return self.crosspoint_capacity - self._crosspoint_retired[destination]

    def can_accept(self, destination: int, size: int = 1) -> bool:
        self._check_output(destination)
        return (
            self._used[destination] + size
            <= self.effective_crosspoint_capacity(destination)
        )

    def push(self, packet: Packet, destination: int) -> None:
        self._check_output(destination)
        limit = self.effective_crosspoint_capacity(destination)
        if self._used[destination] + packet.size > limit:
            raise BufferFullError(
                f"{self.kind} crosspoint for output {destination} full "
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
                f"{self.kind} crosspoint for output {destination} empty"
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

    def retire_slot(self, crosspoint: int | None = None) -> int:
        """Retire one free slot; returns the crosspoint it came from.

        With ``crosspoint=None`` the slot is taken from the crosspoint
        with the most slots still in service (ties broken toward the
        lowest index), spreading hard failures evenly — the dedicated
        memories cannot lend a surviving slot to another output, so the
        failed crosspoint simply shrinks.
        """
        if crosspoint is None:
            crosspoint = max(
                range(self.num_outputs),
                key=lambda out: (
                    self.effective_crosspoint_capacity(out),
                    -out,
                ),
            )
        self._check_output(crosspoint)
        remaining = self.effective_crosspoint_capacity(crosspoint)
        if remaining - self._used[crosspoint] < 1:
            raise FaultError(
                f"crosspoint {crosspoint} has no free slot to retire"
            )
        self._crosspoint_retired[crosspoint] += 1
        self._retired_slots += 1
        return crosspoint

    # -- inspection --------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(self._used)

    def crosspoint_occupancy(self, destination: int) -> int:
        """Slots used inside one crosspoint FIFO."""
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
            "crosspoint_retired": list(self._crosspoint_retired),
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
        self._crosspoint_retired[:] = state["crosspoint_retired"]
        self._retired_slots = state["retired_slots"]

    def canonical_state(self) -> tuple[Any, ...]:
        # Per-crosspoint queues in order, packets identified by size only
        # (ids are renumbered canonically by the model checker).
        return (
            self.kind,
            self.capacity,
            self.num_outputs,
            tuple(self._crosspoint_retired),
            tuple(
                tuple(packet.size for packet in queue)
                for queue in self._queues
            ),
        )

    def check_invariants(self) -> None:
        for destination, queue in enumerate(self._queues):
            if len(queue) != self._counts[destination]:
                raise InvariantError(
                    f"{self.kind} crosspoint {destination}: cached count "
                    f"{self._counts[destination]} != actual {len(queue)}"
                )
            total = sum(packet.size for packet in queue)
            if total != self._used[destination]:
                raise InvariantError(
                    f"{self.kind} crosspoint {destination}: occupancy "
                    f"register {self._used[destination]} != queued sizes "
                    f"{total}"
                )
            limit = self.effective_crosspoint_capacity(destination)
            if self._used[destination] > limit:
                raise InvariantError(
                    f"{self.kind} crosspoint {destination} holds "
                    f"{self._used[destination]} slots but only {limit} are "
                    f"in service"
                )

    def _check_output(self, destination: int) -> None:
        if not 0 <= destination < self.num_outputs:
            raise ConfigurationError(
                f"output {destination} out of range [0, {self.num_outputs})"
            )
