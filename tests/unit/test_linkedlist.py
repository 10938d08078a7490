"""Unit tests for the hardware-faithful slot linked-list manager."""

import pytest

from repro.analysis.sanitizer import HardwareSanitizer
from repro.core.linkedlist import NO_SLOT, SlotListManager
from repro.errors import (
    BufferEmptyError,
    BufferFullError,
    ConfigurationError,
    InvariantError,
)
from repro.instrument import observe


class TestConstruction:
    def test_initial_free_list_chains_every_slot(self):
        manager = SlotListManager(num_slots=6, num_lists=3)
        assert manager.free_count == 6
        assert manager.free_slots() == [0, 1, 2, 3, 4, 5]

    def test_initial_lists_are_empty(self):
        manager = SlotListManager(num_slots=4, num_lists=2)
        assert manager.length(0) == 0
        assert manager.length(1) == 0
        assert manager.occupancy() == 0

    def test_rejects_zero_slots(self):
        with pytest.raises(ConfigurationError):
            SlotListManager(num_slots=0, num_lists=1)

    def test_rejects_zero_lists(self):
        with pytest.raises(ConfigurationError):
            SlotListManager(num_slots=4, num_lists=0)


class TestAllocate:
    def test_allocate_takes_free_head(self):
        manager = SlotListManager(num_slots=4, num_lists=2)
        assert manager.allocate(0) == 0
        assert manager.allocate(0) == 1
        assert manager.free_count == 2

    def test_allocate_appends_to_list_tail(self):
        manager = SlotListManager(num_slots=4, num_lists=2)
        manager.allocate(1)
        manager.allocate(1)
        assert manager.slots(1) == [0, 1]
        assert manager.head(1) == 0
        assert manager.tail(1) == 1

    def test_allocate_exhausted_raises(self):
        manager = SlotListManager(num_slots=2, num_lists=1)
        manager.allocate(0)
        manager.allocate(0)
        with pytest.raises(BufferFullError):
            manager.allocate(0)

    def test_allocate_interleaves_lists(self):
        manager = SlotListManager(num_slots=6, num_lists=2)
        manager.allocate(0)  # slot 0
        manager.allocate(1)  # slot 1
        manager.allocate(0)  # slot 2
        assert manager.slots(0) == [0, 2]
        assert manager.slots(1) == [1]

    def test_pointer_registers_chain_the_list(self):
        manager = SlotListManager(num_slots=4, num_lists=1)
        manager.allocate(0)
        manager.allocate(0)
        manager.allocate(0)
        assert manager.next_slot(0) == 1
        assert manager.next_slot(1) == 2
        assert manager.next_slot(2) == NO_SLOT


class TestRelease:
    def test_release_returns_head_slot(self):
        manager = SlotListManager(num_slots=4, num_lists=2)
        manager.allocate(0)
        manager.allocate(0)
        assert manager.release_head(0) == 0
        assert manager.slots(0) == [1]

    def test_release_recycles_to_free_tail(self):
        manager = SlotListManager(num_slots=3, num_lists=1)
        manager.allocate(0)  # slot 0; free = [1, 2]
        manager.release_head(0)
        assert manager.free_slots() == [1, 2, 0]

    def test_release_empty_raises(self):
        manager = SlotListManager(num_slots=2, num_lists=1)
        with pytest.raises(BufferEmptyError):
            manager.release_head(0)

    def test_full_cycle_returns_all_slots(self):
        manager = SlotListManager(num_slots=3, num_lists=2)
        for _ in range(3):
            manager.allocate(1)
        for _ in range(3):
            manager.release_head(1)
        assert manager.free_count == 3
        assert manager.occupancy() == 0

    def test_fifo_order_within_list(self):
        manager = SlotListManager(num_slots=5, num_lists=1)
        allocated = [manager.allocate(0) for _ in range(5)]
        released = [manager.release_head(0) for _ in range(5)]
        assert released == allocated


class TestCutThroughHeadRegister:
    """Empty lists point at the free head — the cut-through enabler."""

    def test_empty_list_head_is_free_head(self):
        manager = SlotListManager(num_slots=4, num_lists=2)
        assert manager.head(0) == 0
        manager.allocate(1)  # consumes slot 0
        assert manager.head(0) == 1  # free head moved

    def test_allocation_lands_on_predicted_slot(self):
        """The slot a cut-through would stream into is the one allocated."""
        manager = SlotListManager(num_slots=4, num_lists=2)
        predicted = manager.head(0)
        assert manager.allocate(0) == predicted

    def test_empty_list_with_no_free_slots(self):
        manager = SlotListManager(num_slots=1, num_lists=2)
        manager.allocate(0)
        assert manager.head(1) == NO_SLOT
        assert manager.peek_free() == NO_SLOT

    def test_nonempty_list_head_unaffected_by_free_list(self):
        manager = SlotListManager(num_slots=4, num_lists=2)
        manager.allocate(0)
        manager.allocate(1)
        assert manager.head(0) == 0


class TestValidation:
    def test_invariants_hold_through_mixed_operations(self):
        manager = SlotListManager(num_slots=8, num_lists=3)
        script = [
            ("alloc", 0), ("alloc", 1), ("alloc", 0), ("rel", 0),
            ("alloc", 2), ("alloc", 2), ("rel", 2), ("alloc", 1),
            ("rel", 1), ("rel", 0), ("alloc", 0),
        ]
        for op, list_id in script:
            if op == "alloc":
                manager.allocate(list_id)
            else:
                manager.release_head(list_id)
            manager.check_invariants()

    def test_bad_list_id_rejected(self):
        manager = SlotListManager(num_slots=2, num_lists=2)
        with pytest.raises(ConfigurationError):
            manager.length(2)
        with pytest.raises(ConfigurationError):
            manager.allocate(-1)

    def test_bad_slot_id_rejected(self):
        manager = SlotListManager(num_slots=2, num_lists=1)
        with pytest.raises(ConfigurationError):
            manager.next_slot(5)

    def test_length_tracks_operations(self):
        manager = SlotListManager(num_slots=4, num_lists=2)
        manager.allocate(0)
        manager.allocate(0)
        manager.allocate(1)
        assert manager.length(0) == 2
        assert manager.length(1) == 1
        assert manager.occupancy() == 3
        assert manager.is_empty(0) is False
        manager.release_head(0)
        manager.release_head(0)
        assert manager.is_empty(0) is True


def _wild_pointer(manager):
    manager.allocate(0)
    manager.allocate(0)
    manager._next[manager._head[0]] = 99  # outside the 8-slot pool


def _self_loop(manager):
    slot = manager.allocate(0)
    manager._next[slot] = slot


def _cross_link(manager):
    slot = manager.allocate(0)
    # List 1's registers alias list 0's only slot.
    manager._head[1] = slot
    manager._tail[1] = slot
    manager._length[1] = 1


def _leaked_slot(manager):
    manager.allocate(0)
    # Every register agrees the list is empty; the slot is simply lost.
    manager._head[0] = NO_SLOT
    manager._tail[0] = NO_SLOT
    manager._length[0] = 0


def _empty_list_head_still_set(manager):
    slot = manager.allocate(0)
    manager.release_head(0)
    manager._head[0] = slot  # the emptied list kept its old head register


def _stale_free_tail(manager):
    manager.allocate(0)
    manager._free_tail = manager.free_slots()[0]


def _stale_length_register(manager):
    manager.allocate(1)
    manager._length[1] = 2  # claims two slots, the chain has one


def _retired_slot_linked(manager):
    retired = manager.retire_slot()
    manager._head[0] = retired
    manager._tail[0] = retired
    manager._length[0] = 1


POINTER_CORRUPTIONS = [
    ("wild-pointer", _wild_pointer),
    ("pointer-cycle", _self_loop),
    ("cross-link", _cross_link),
    ("pointer-leak", _leaked_slot),
    ("stale-register", _empty_list_head_still_set),
    ("stale-register", _stale_free_tail),
    ("stale-register", _stale_length_register),
    ("retired-linked", _retired_slot_linked),
]


@pytest.mark.parametrize(
    ("kind", "corrupt"),
    POINTER_CORRUPTIONS,
    ids=[corrupt.__name__.lstrip("_") for _, corrupt in POINTER_CORRUPTIONS],
)
def test_pointer_corruption_reaches_both_consumers(kind, corrupt):
    """One walk, two consumers: the invariant check and the sanitizer."""
    sanitizer = HardwareSanitizer()
    manager = observe(SlotListManager(8, 2), sanitizer, "m")
    manager.check_invariants()
    corrupt(manager)
    with pytest.raises(InvariantError) as excinfo:
        manager.check_invariants()
    assert str(excinfo.value).startswith(f"{kind}: ")
    sanitizer.scan()
    assert kind in {violation.kind for violation in sanitizer.violations}
