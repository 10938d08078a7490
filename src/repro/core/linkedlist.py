"""Hardware-faithful linked-list slot manager (Section 3.1 of the paper).

The DAMQ buffer keeps its packets organized as linked lists threaded through
a pool of fixed-size slots.  Every slot has a *pointer register* naming the
next slot of its list; every list has a *head register* and a *tail
register*; unused slots live on a *free list*.  This module models exactly
that register file, because both the packet-granularity
:class:`repro.core.damq.DamqBuffer` and the byte-granularity chip model
(:mod:`repro.chip.slots`) are built on it.

A detail that matters for virtual cut-through (Section 3.2.2): when a
destination list is empty, its head register is made to point at the *first
slot of the free list*, so the transmitter already addresses the correct
slot the moment a cut-through packet starts arriving.  The manager preserves
that behaviour: :meth:`head` of an empty list returns the free-list head.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    BufferEmptyError,
    BufferFullError,
    ConfigurationError,
    FaultError,
    InvariantError,
)

__all__ = ["SlotListManager", "NO_SLOT"]

#: Sentinel pointer value meaning "no next slot" (a null pointer register).
NO_SLOT = -1


class SlotListManager:
    """A pool of slots threaded into one free list plus ``num_lists`` queues.

    Parameters
    ----------
    num_slots:
        Total number of slots in the pool.
    num_lists:
        Number of destination lists (e.g. one per output port the input is
        not paired with, plus one for the processor interface — five in the
        ComCoBB chip, with the fifth being the free list which this class
        manages implicitly).

    The manager mirrors the hardware exactly:

    * one pointer register per slot (``pointer_register``),
    * a head and tail register per list,
    * a free-list head register (slots are returned to the free list in
      FIFO order, as the hardware recycles them).
    """

    def __init__(self, num_slots: int, num_lists: int) -> None:
        if num_slots < 1:
            raise ConfigurationError("slot pool needs at least one slot")
        if num_lists < 1:
            raise ConfigurationError("need at least one destination list")
        self.num_slots = num_slots
        self.num_lists = num_lists
        # Pointer register file: _next[s] is the slot after s in its list.
        self._next: list[int] = [NO_SLOT] * num_slots
        # Head/tail registers, one pair per destination list.
        self._head: list[int] = [NO_SLOT] * num_lists
        self._tail: list[int] = [NO_SLOT] * num_lists
        self._length: list[int] = [0] * num_lists
        # The free list initially chains every slot in index order.
        for slot in range(num_slots - 1):
            self._next[slot] = slot + 1
        self._free_head = 0
        self._free_tail = num_slots - 1
        self._free_count = num_slots
        # Slots taken out of service by the fault model: on no list at all.
        self._retired: set[int] = set()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def free_count(self) -> int:
        """Number of slots currently on the free list."""
        return self._free_count

    def length(self, list_id: int) -> int:
        """Number of slots currently queued on list ``list_id``."""
        self._check_list(list_id)
        return self._length[list_id]

    @property
    def retired_count(self) -> int:
        """Number of slots retired by the fault model."""
        return len(self._retired)

    @property
    def usable_slots(self) -> int:
        """Slots still in service (total minus retired)."""
        return self.num_slots - len(self._retired)

    def retired_slots(self) -> list[int]:
        """The retired slots in index order."""
        return sorted(self._retired)

    def occupancy(self) -> int:
        """Total slots in use across all destination lists."""
        return self.num_slots - self._free_count - len(self._retired)

    def is_empty(self, list_id: int) -> bool:
        """True when list ``list_id`` holds no slot."""
        return self.length(list_id) == 0

    def peek_free(self) -> int:
        """Slot at the head of the free list (``NO_SLOT`` when exhausted)."""
        return self._free_head if self._free_count else NO_SLOT

    def head(self, list_id: int) -> int:
        """Value of the head register for ``list_id``.

        Faithful to the hardware: an *empty* list's head register points at
        the head of the free list so that a cut-through transmission can
        start without waiting for pointer updates.  Returns ``NO_SLOT`` only
        when the list is empty *and* the free list is exhausted.
        """
        self._check_list(list_id)
        if self._length[list_id] == 0:
            return self.peek_free()
        return self._head[list_id]

    def tail(self, list_id: int) -> int:
        """Value of the tail register for ``list_id`` (``NO_SLOT`` if empty)."""
        self._check_list(list_id)
        return self._tail[list_id] if self._length[list_id] else NO_SLOT

    def next_slot(self, slot: int) -> int:
        """Value of ``slot``'s pointer register."""
        self._check_slot(slot)
        return self._next[slot]

    def slots(self, list_id: int) -> list[int]:
        """The slots of ``list_id`` in queue order (head first)."""
        self._check_list(list_id)
        result = []
        slot = self._head[list_id]
        for _ in range(self._length[list_id]):
            result.append(slot)
            slot = self._next[slot]
        return result

    def free_slots(self) -> list[int]:
        """The slots of the free list in order (head first)."""
        result = []
        slot = self._free_head
        for _ in range(self._free_count):
            result.append(slot)
            slot = self._next[slot]
        return result

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def allocate(self, list_id: int) -> int:
        """Move the free-list head slot to the tail of ``list_id``.

        This is the receive-side operation of Section 3.2.1: take a slot
        from the free list, then point the old tail's pointer register at
        it and update the tail register.

        Returns the slot index.  Raises :class:`BufferFullError` when the
        free list is empty.
        """
        self._check_list(list_id)
        if self._free_count == 0:
            raise BufferFullError("no free slot available")
        slot = self._free_head
        self._free_head = self._next[slot]
        self._free_count -= 1
        if self._free_count == 0:
            self._free_head = NO_SLOT
            self._free_tail = NO_SLOT
        self._next[slot] = NO_SLOT
        if self._length[list_id] == 0:
            self._head[list_id] = slot
        else:
            self._next[self._tail[list_id]] = slot
        self._tail[list_id] = slot
        self._length[list_id] += 1
        return slot

    def release_head(self, list_id: int) -> int:
        """Pop the head slot of ``list_id`` and return it to the free list.

        This is the transmit-side operation of Section 3.2.2: the head
        register advances to the slot named by the departing slot's pointer
        register, and the departing slot is appended to the free list.
        """
        self._check_list(list_id)
        if self._length[list_id] == 0:
            raise BufferEmptyError(f"list {list_id} is empty")
        slot = self._head[list_id]
        self._head[list_id] = self._next[slot]
        self._length[list_id] -= 1
        if self._length[list_id] == 0:
            self._head[list_id] = NO_SLOT
            self._tail[list_id] = NO_SLOT
        self._append_free(slot)
        return slot

    def release_tail(self, list_id: int) -> int:
        """Pop the *tail* slot of ``list_id`` and return it to the free list.

        This is not a hardware datapath operation: the controller uses it
        only when a fault is detected while a packet is still being
        received, to un-claim the slots of the aborted packet (which are by
        construction the newest — tail — slots of their destination list).
        """
        self._check_list(list_id)
        if self._length[list_id] == 0:
            raise BufferEmptyError(f"list {list_id} is empty")
        tail = self._tail[list_id]
        if self._length[list_id] == 1:
            self._head[list_id] = NO_SLOT
            self._tail[list_id] = NO_SLOT
        else:
            predecessor = self._head[list_id]
            while self._next[predecessor] != tail:
                predecessor = self._next[predecessor]
            self._next[predecessor] = NO_SLOT
            self._tail[list_id] = predecessor
        self._length[list_id] -= 1
        self._append_free(tail)
        return tail

    # ------------------------------------------------------------------
    # Graceful degradation: slot retirement
    # ------------------------------------------------------------------

    def retire_slot(self, slot: int | None = None) -> int:
        """Permanently take a *free* slot out of service.

        Models a hard failure of a buffer slot (stuck cells, broken pointer
        register): the slot is unlinked from the free list and never handed
        out again, so the pool keeps operating at reduced capacity.  With
        ``slot=None`` the free-list head is retired.  Returns the retired
        slot index.  Raises :class:`FaultError` when the slot is not free
        or when retiring it would leave the pool without usable slots.
        """
        if self._free_count == 0:
            raise FaultError("no free slot available to retire")
        if self.usable_slots <= 1:
            raise FaultError("cannot retire the last usable slot")
        if slot is None:
            slot = self._free_head
        else:
            self._check_slot(slot)
            if slot in self._retired:
                raise FaultError(f"slot {slot} is already retired")
        # Unlink the slot from wherever it sits on the free chain.
        if slot == self._free_head:
            self._free_head = self._next[slot]
        else:
            predecessor = self._free_head
            while predecessor != NO_SLOT and self._next[predecessor] != slot:
                predecessor = self._next[predecessor]
            if predecessor == NO_SLOT:
                raise FaultError(f"slot {slot} is not on the free list")
            self._next[predecessor] = self._next[slot]
            if slot == self._free_tail:
                self._free_tail = predecessor
        self._free_count -= 1
        if self._free_count == 0:
            self._free_head = NO_SLOT
            self._free_tail = NO_SLOT
        self._next[slot] = NO_SLOT
        self._retired.add(slot)
        return slot

    def restore_slot(self, slot: int) -> None:
        """Return a retired slot to service (appended to the free list)."""
        self._check_slot(slot)
        if slot not in self._retired:
            raise FaultError(f"slot {slot} is not retired")
        self._retired.remove(slot)
        self._append_free(slot)

    def _append_free(self, slot: int) -> None:
        """Append ``slot`` to the tail of the free list."""
        self._next[slot] = NO_SLOT
        if self._free_count == 0:
            self._free_head = slot
        else:
            self._next[self._free_tail] = slot
        self._free_tail = slot
        self._free_count += 1

    def canonical_state(self) -> tuple[Any, ...]:
        """A hashable canonical form of the register file (pure).

        Captures the *exact* physical layout — per-list slot chains in
        queue order, the free chain in recycling order, and the retired
        set — so the model checker's exact-layout mode distinguishes
        states that differ only in how slots are threaded.
        """
        return (
            self.num_slots,
            self.num_lists,
            tuple(
                tuple(self.slots(list_id))
                for list_id in range(self.num_lists)
            ),
            tuple(self.free_slots()),
            tuple(sorted(self._retired)),
        )

    # ------------------------------------------------------------------
    # Checkpoint serialization
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict[str, Any]:
        """The whole register file as a JSON-able dict.

        Captures every pointer/head/tail/length register plus the free
        list and the retired set (serialized as a sorted list — the set
        itself is never iterated during simulation, so ordering carries
        no behaviour).
        """
        return {
            "next": list(self._next),
            "head": list(self._head),
            "tail": list(self._tail),
            "length": list(self._length),
            "free_head": self._free_head,
            "free_tail": self._free_tail,
            "free_count": self._free_count,
            "retired": sorted(self._retired),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Overwrite the register file with a :meth:`snapshot_state` dict.

        The register lists are mutated *in place* so any live references
        (instrumentation, debug views) keep observing the same objects.
        """
        if len(state["next"]) != self.num_slots:
            raise ConfigurationError(
                f"snapshot describes {len(state['next'])} slots, "
                f"this pool has {self.num_slots}"
            )
        self._next[:] = state["next"]
        self._head[:] = state["head"]
        self._tail[:] = state["tail"]
        self._length[:] = state["length"]
        self._free_head = state["free_head"]
        self._free_tail = state["free_tail"]
        self._free_count = state["free_count"]
        self._retired.clear()
        self._retired.update(state["retired"])

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def pointer_faults(self) -> list[tuple[str, int | None, str]]:
        """Walk the raw pointer RAM and list every structural fault (pure).

        Each list's head register and the free-list head register are
        followed through the pointer registers to a null pointer; no
        cached register is trusted.  The walk is then compared with the
        length and tail registers (``_free_count`` / ``_free_tail`` for
        the free list), and every slot that is neither reached nor
        retired is a leak.  Returns ``(kind, slot, message)`` tuples in
        walk order; ``slot`` is the slot whose register the finding
        concerns, or ``None`` for a head/length/tail register.  Kinds:

        * ``wild-pointer`` — a register names a slot outside the pool;
        * ``pointer-cycle`` — a chain loops back on itself;
        * ``cross-link`` — one slot is reachable from two chains;
        * ``retired-linked`` — a retired slot is still on a chain;
        * ``stale-register`` — a length or tail register disagrees with
          the chain its head register leads to;
        * ``pointer-leak`` — a live slot is unreachable from every head.

        Only chains that end in a null pointer are compared with their
        registers.  The walk never raises and never mutates anything.
        """
        faults: list[tuple[str, int | None, str]] = []
        reached: dict[int, str] = {}
        names = [f"list {list_id}" for list_id in range(self.num_lists)]
        chains = list(zip(names, self._head, self._length, self._tail))
        chains.append(
            ("free list", self._free_head, self._free_count, self._free_tail)
        )
        for name, slot, length, tail in chains:
            chain: list[int] = []
            previous: int | None = None
            while slot != NO_SLOT:
                if not 0 <= slot < self.num_slots:
                    message = (
                        f"{name} points at slot {slot}, outside the "
                        f"{self.num_slots}-slot pool"
                    )
                    faults.append(("wild-pointer", previous, message))
                    break
                if slot in reached:
                    if reached[slot] == name:
                        message = (
                            f"{name} loops back to slot {slot}: a "
                            f"transmitter draining it would never terminate"
                        )
                        faults.append(("pointer-cycle", slot, message))
                    else:
                        message = (
                            f"slot {slot} is reachable from both "
                            f"{reached[slot]} and {name}"
                        )
                        faults.append(("cross-link", slot, message))
                    break
                if slot in self._retired:
                    message = f"retired slot {slot} is still linked on {name}"
                    faults.append(("retired-linked", slot, message))
                reached[slot] = name
                chain.append(slot)
                previous = slot
                slot = self._next[slot]
            else:
                if len(chain) != length:
                    message = (
                        f"{name}: length register reads {length}, its head "
                        f"register leads to {len(chain)} slot(s)"
                    )
                    faults.append(("stale-register", None, message))
                last = chain[-1] if chain else NO_SLOT
                if tail != last:
                    message = (
                        f"{name}: tail register reads {tail}, the chain "
                        f"ends at {last}"
                    )
                    faults.append(("stale-register", None, message))
        for slot in range(self.num_slots):
            if slot not in reached and slot not in self._retired:
                message = (
                    f"slot {slot} is unreachable from every head register: "
                    f"its storage is lost to the pool"
                )
                faults.append(("pointer-leak", slot, message))
        return faults

    def check_invariants(self) -> None:
        """Verify the register file: every live slot on exactly one list.

        Raises :class:`InvariantError` naming the first finding of
        :meth:`pointer_faults` (never a bare ``AssertionError``, so the
        check fires under ``python -O`` too).  Retired slots must appear
        on *no* list.  Exercised heavily by the property-based tests.
        """
        for kind, _slot, message in self.pointer_faults():
            raise InvariantError(f"{kind}: {message}")

    def _check_list(self, list_id: int) -> None:
        if not 0 <= list_id < self.num_lists:
            raise ConfigurationError(
                f"list id {list_id} out of range [0, {self.num_lists})"
            )

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise ConfigurationError(
                f"slot {slot} out of range [0, {self.num_slots})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lists = {lid: self.slots(lid) for lid in range(self.num_lists)}
        return f"SlotListManager(free={self.free_slots()}, lists={lists})"
