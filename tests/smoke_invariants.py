#!/usr/bin/env python3
"""Smoke check that invariant detection survives ``python -O``.

``python -O`` strips every ``assert`` statement, so structural
self-checks implemented with bare asserts silently stop firing.  This
script — intentionally written without a single ``assert`` — corrupts
one data structure per layer and verifies :class:`repro.errors.
InvariantError` is still raised.  CI runs it under ``python -O``.

Exit status 0 means every corruption was detected; any other status is a
regression.
"""

import sys

from repro.core import DamqBuffer, FifoBuffer, SafcBuffer, SlotListManager
from repro.core.linkedlist import NO_SLOT
from repro.core.packet import Packet
from repro.errors import InvariantError

FAILURES: list[str] = []


def expect_detection(label, corrupt):
    """Run one corruption scenario; record whether detection fired."""
    try:
        corrupt()
    except InvariantError:
        print(f"  detected: {label}")
        return
    FAILURES.append(label)
    print(f"  MISSED:   {label}")


def corrupt_linked_list():
    manager = SlotListManager(num_slots=4, num_lists=2)
    manager.allocate(0)
    manager.allocate(0)
    manager._next[manager._head[0]] = NO_SLOT  # sever the chain
    manager.check_invariants()


def corrupt_empty_list_head():
    manager = SlotListManager(num_slots=4, num_lists=2)
    slot = manager.allocate(0)
    manager.release_head(0)
    manager._head[0] = slot  # the emptied list kept its old head register
    manager.check_invariants()


def corrupt_free_tail():
    manager = SlotListManager(num_slots=4, num_lists=2)
    manager.allocate(0)
    manager._free_tail = manager.free_slots()[0]  # tail lags the chain
    manager.check_invariants()


def corrupt_retirement_books():
    manager = SlotListManager(num_slots=4, num_lists=2)
    manager.retire_slot()
    manager._retired.add(manager.free_slots()[0])  # live slot marked dead
    manager.check_invariants()


def corrupt_damq_count_cache():
    buffer = DamqBuffer(capacity=4, num_outputs=2)
    buffer.push(Packet(packet_id=1, source=0, destination=0), 0)
    buffer._packet_counts[0] = 2
    buffer.check_invariants()


def corrupt_fifo_used_counter():
    buffer = FifoBuffer(capacity=4, num_outputs=2)
    buffer.push(Packet(packet_id=1, source=0, destination=0), 0)
    buffer._used = 3
    buffer.check_invariants()


def corrupt_safc_partition():
    buffer = SafcBuffer(capacity=4, num_outputs=2)
    buffer.push(Packet(packet_id=1, source=0, destination=0), 0)
    buffer._used[0] = 2
    buffer.check_invariants()


def main() -> int:
    optimized = not __debug__
    print(
        f"invariant smoke check (python {'-O' if optimized else 'default'}, "
        f"__debug__={__debug__})"
    )
    expect_detection("severed linked-list chain", corrupt_linked_list)
    expect_detection("empty list head still set", corrupt_empty_list_head)
    expect_detection("stale free-tail register", corrupt_free_tail)
    expect_detection("phantom retired slot", corrupt_retirement_books)
    expect_detection("DAMQ count-cache drift", corrupt_damq_count_cache)
    expect_detection("FIFO used-counter drift", corrupt_fifo_used_counter)
    expect_detection("SAFC partition drift", corrupt_safc_partition)
    if FAILURES:
        print(f"FAIL: {len(FAILURES)} corruption(s) went undetected")
        return 1
    print("OK: every corruption detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
