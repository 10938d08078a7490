"""Abstract interface shared by the four input-buffer architectures.

The paper compares four ways of organizing the buffer at a switch input
port (Figure 1):

* **FIFO** — one queue; only the head-of-line packet is visible.
* **SAFC** — statically allocated, fully connected: one queue per output
  port, each with ``capacity / n`` dedicated slots, readable in parallel.
* **SAMQ** — statically allocated multi-queue: same static partitioning but
  a single read port.
* **DAMQ** — dynamically allocated multi-queue: per-output queues that
  share the whole slot pool, single read port (the contribution).

All four implement :class:`SwitchBuffer`.  The network simulator and the
crossbar arbiter program against this interface only, so every experiment
is a pure buffer-architecture comparison with everything else held equal —
which is exactly the paper's methodology.

Conventions
-----------
* ``destination`` arguments are *local output-port indices* of the switch
  that owns the buffer (the router has already translated the packet's
  network destination).
* Capacity is counted in packets; the paper's network experiments use
  fixed-length packets occupying one slot each.  ``Packet.size`` larger
  than one (the variable-length extension) consumes several slots.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from repro.core.packet import Packet
from repro.errors import ConfigurationError

__all__ = ["SwitchBuffer"]


class SwitchBuffer(ABC):
    """One input port's packet storage.

    Parameters
    ----------
    capacity:
        Total number of slots (packets of size one) the buffer can hold.
    num_outputs:
        Number of output ports of the owning switch; packets are queued by
        the local output port they have been routed to.
    """

    #: Short name used in experiment tables ("FIFO", "DAMQ", ...).
    kind: str = "abstract"

    #: How many distinct packets the buffer can source in one cycle.  Every
    #: buffer except SAFC has a single read port.
    max_reads_per_cycle: int = 1

    #: True when :meth:`queue_lengths` returns a *live* list — the same
    #: (read-only to callers) object on every call, always current.  Lets
    #: the switch hand the arbiter a permanent view instead of snapshotting
    #: every cycle.  All concrete buffers in this package are live.
    lengths_are_live: bool = False

    def __init__(self, capacity: int, num_outputs: int) -> None:
        if capacity < 1:
            raise ConfigurationError("buffer capacity must be at least 1")
        if num_outputs < 1:
            raise ConfigurationError("switch needs at least one output port")
        self.capacity = capacity
        self.num_outputs = num_outputs
        self._retired_slots = 0

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------

    @abstractmethod
    def can_accept(self, destination: int, size: int = 1) -> bool:
        """True when a packet routed to ``destination`` would fit now.

        For the statically partitioned buffers this depends on the
        destination (a full partition rejects even when other partitions
        have room); for FIFO and DAMQ only the total free space matters.
        """

    @abstractmethod
    def push(self, packet: Packet, destination: int) -> None:
        """Store ``packet`` on the queue for local output ``destination``.

        Raises :class:`repro.errors.BufferFullError` when it does not fit;
        the caller decides whether that means *discard* or *block*.
        """

    def can_accept_without_prerouting(self, size: int = 1) -> bool:
        """Whether a packet of unknown destination is guaranteed to fit.

        This is the *conservative* flow-control question (Section 2): an
        upstream transmitter that cannot pre-route a packet must assume
        the worst-case destination queue.  For the single-pool buffers
        (FIFO, DAMQ) this equals :meth:`can_accept`; for the statically
        partitioned buffers it requires *every* partition to have room.
        """
        return all(
            self.can_accept(destination, size)
            for destination in range(self.num_outputs)
        )

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    @abstractmethod
    def peek(self, destination: int) -> Packet | None:
        """The packet that would be sent to ``destination`` this cycle.

        ``None`` when the buffer cannot currently offer a packet for that
        output (empty queue — or, for FIFO, a head-of-line packet bound
        elsewhere: that is the blocking the paper is about).
        """

    @abstractmethod
    def pop(self, destination: int) -> Packet:
        """Remove and return the packet :meth:`peek` exposes.

        Raises :class:`repro.errors.BufferEmptyError` when no packet is
        available for ``destination``.
        """

    @abstractmethod
    def queue_length(self, destination: int) -> int:
        """Arbitration metric: packets the buffer holds for ``destination``.

        The paper's arbiter transmits "from the longest queue"; for FIFO
        the whole buffer is one queue, attributed to the head packet's
        destination.
        """

    def queue_lengths(self) -> list[int]:
        """All per-output queue lengths in one call.

        Arbitration fast path: the arbiter snapshots every length once per
        cycle (buffer state cannot change during arbitration — pops happen
        at execution).  Subclasses override with cheaper bulk reads.
        """
        return [
            self.queue_length(destination)
            for destination in range(self.num_outputs)
        ]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def occupancy(self) -> int:
        """Total slots currently in use."""

    @property
    def retired_count(self) -> int:
        """Slots permanently taken out of service by the fault model."""
        return self._retired_slots

    @property
    def effective_capacity(self) -> int:
        """Capacity still in service after slot retirement."""
        return self.capacity - self.retired_count

    @property
    def free_slots(self) -> int:
        """Slots still available (whole-pool view, excluding retired)."""
        return self.effective_capacity - self.occupancy

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------

    @abstractmethod
    def retire_slot(self) -> None:
        """Take one currently free slot out of service permanently.

        Models a hard slot failure: the buffer keeps operating at reduced
        capacity.  Raises :class:`repro.errors.FaultError` when no free
        slot can be spared (every usable slot occupied, or the buffer
        would be left without capacity).
        """

    def retire_slots(self, count: int) -> None:
        """Retire ``count`` slots (convenience for fault campaigns)."""
        if count < 0:
            raise ConfigurationError("cannot retire a negative slot count")
        for _ in range(count):
            self.retire_slot()

    def check_invariants(self) -> None:
        """Structural self-check; raises
        :class:`repro.errors.InvariantError` on corruption.  Subclasses
        override with architecture-specific checks.

        Contract: implementations must be *pure* — no RNG draws, no meter
        or register mutation, no reordering of internal containers.  The
        model checker (:mod:`repro.analysis.model`) calls this once per
        explored state and assumes the snapshot bytes are unchanged
        afterwards; ``tests/unit/test_invariant_purity.py`` enforces it.
        """

    # ------------------------------------------------------------------
    # Model-checking hooks
    # ------------------------------------------------------------------

    def observable_state(self) -> dict[str, Any]:
        """The buffer's externally visible behaviour, as one pure value.

        Everything a switch (or an observational-equivalence check) can
        learn about the buffer through the public interface this cycle:
        acceptance per destination, the head packet offered per
        destination, per-queue lengths and the aggregate counters.  Two
        buffers with equal observable states are indistinguishable to the
        arbiter and the flow-control logic *right now*; the model checker
        uses repeated observations along all interleavings to establish
        observational equivalence (e.g. DAMQ restricted to one queue vs.
        FIFO).  Must not mutate the buffer.
        """
        heads: list[int | None] = []
        for destination in range(self.num_outputs):
            packet = self.peek(destination)
            heads.append(None if packet is None else packet.packet_id)
        return {
            "kind": self.kind,
            "occupancy": self.occupancy,
            "retired": self.retired_count,
            "accepts": [
                self.can_accept(destination)
                for destination in range(self.num_outputs)
            ],
            "heads": heads,
            "lengths": [
                self.queue_length(destination)
                for destination in range(self.num_outputs)
            ],
        }

    def canonical_state(self) -> tuple[Any, ...]:
        """A hashable canonical form of the complete buffer state.

        Used by the model checker to deduplicate explored states: two
        buffers with equal canonical states have isomorphic futures.
        Packet identity is *not* part of the canonical form (slot
        contents are summarized by destination and size) because packet
        ids never influence buffer behaviour — the checker renumbers ids
        canonically per state.  Must not mutate the buffer.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support canonicalization"
        )

    # ------------------------------------------------------------------
    # Checkpoint serialization
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """The buffer's complete state as a JSON-able dict.

        Every concrete buffer implements this (and the matching
        :meth:`restore_state`) so the simulator's checkpoint machinery
        can capture buffers without knowing their architecture.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def restore_state(self, state: dict[str, Any]) -> None:
        """Overwrite the buffer with a :meth:`snapshot_state` dict.

        Implementations mutate internal register lists *in place* (never
        rebind them): the owning switch and the simulator's flow-control
        closures hold live references to those lists.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    @property
    def is_empty(self) -> bool:
        """True when the buffer holds no packet at all."""
        return self.occupancy == 0

    def available_outputs(self) -> list[int]:
        """Local outputs for which :meth:`peek` returns a packet now."""
        return [
            output
            for output in range(self.num_outputs)
            if self.peek(output) is not None
        ]

    def logical_queues(self) -> list[list[Packet]]:
        """The stored packets, one list per logical queue, in FIFO order.

        One list per destination queue — a single list for the FIFO,
        whose one physical queue serves every destination.  Physical
        placement (which DAMQ slot a packet landed in) is not part of
        the view; a multi-slot packet appears once.
        """
        raise NotImplementedError

    def packets(self) -> list[Packet]:
        """Every stored packet, queue after queue.  For tests/metrics."""
        return [packet for queue in self.logical_queues() for packet in queue]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"occupancy={self.occupancy})"
        )
