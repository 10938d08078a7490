"""Unit tests for the runtime hardware sanitizer (repro.analysis.sanitizer).

Each hazard class is provoked deliberately — by corrupting a live
:class:`SlotListManager`'s register file or by exceeding a buffer's port
budget inside one cycle — and the test asserts the sanitizer produces a
precise report: violation kind, buffer label, slot, cycle, and an
operation trace.  A final section checks adoption is state-preserving and
that clean runs stay clean.
"""

import pytest

from repro.analysis.sanitizer import HardwareSanitizer
from repro.core.damq import DamqBuffer
from repro.core.fifo import FifoBuffer
from repro.core.linkedlist import NO_SLOT, SlotListManager
from repro.core.packet import Packet
from repro.core.safc import SafcBuffer
from repro.errors import ConfigurationError, SanitizerError
from repro.instrument import env_instrumentation, observe


def make_manager(num_slots=8, num_lists=4):
    sanitizer = HardwareSanitizer()
    manager = SlotListManager(num_slots=num_slots, num_lists=num_lists)
    adopted = observe(manager, sanitizer, "bufA")
    return sanitizer, adopted


def packet(packet_id=0, destination=0, size=1):
    return Packet(
        packet_id=packet_id, source=0, destination=destination, size=size
    )


class TestAdoption:
    def test_adoption_preserves_live_state(self):
        manager = SlotListManager(num_slots=8, num_lists=4)
        first = manager.allocate(0)
        second = manager.allocate(1)
        sanitizer = HardwareSanitizer()
        adopted = observe(manager, sanitizer, "bufA")
        assert adopted is manager
        assert manager._observers == [sanitizer]
        assert manager.slots(0) == [first]
        assert manager.slots(1) == [second]
        assert manager.free_count == 6
        sanitizer.scan()
        assert sanitizer.clean

    def test_normal_traffic_is_clean(self):
        sanitizer, manager = make_manager()
        for cycle in range(50):
            sanitizer.on_cycle(cycle)
            slot = manager.allocate(cycle % 4)
            released = manager.release_head(cycle % 4)
            assert released == slot
        sanitizer.scan()
        assert sanitizer.clean
        assert sanitizer.report()["violations"] == []

    def test_retire_and_restore_are_clean(self):
        sanitizer, manager = make_manager()
        retired = manager.retire_slot()
        manager.restore_slot(retired)
        sanitizer.scan()
        assert sanitizer.clean

    def test_double_adoption_is_idempotent(self):
        sanitizer, manager = make_manager()
        again = observe(manager, sanitizer, "renamed")
        assert again is manager
        assert len(sanitizer._slots) == 1

    def test_foreign_subclass_is_observed(self):
        class Custom(SlotListManager):
            pass

        sanitizer = HardwareSanitizer()
        manager = observe(Custom(4, 2), sanitizer, "custom")
        assert isinstance(manager, Custom)
        assert manager._observers == [sanitizer]
        slot = manager.allocate(0)
        manager.release_head(0)
        manager._append_free(slot)
        assert [v.kind for v in sanitizer.violations] == ["double-free"]

    def test_non_protocol_object_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot observe"):
            observe(object(), HardwareSanitizer(), "bad")


class TestFreeListCorruption:
    def test_double_free_is_reported(self):
        sanitizer, manager = make_manager()
        sanitizer.on_cycle(7)
        slot = manager.allocate(0)
        manager.release_head(0)
        # The controller frees the same slot twice: the second append
        # makes the free list alias itself.
        manager._append_free(slot)
        assert not sanitizer.clean
        violation = sanitizer.violations[0]
        assert violation.kind == "double-free"
        assert violation.buffer == "bufA"
        assert violation.slot == slot
        assert violation.cycle == 7
        assert any("free" in entry for entry in violation.trace)

    def test_double_free_reaches_both_rails(self):
        from repro.telemetry import TraceSession

        sanitizer, manager = make_manager()
        session = TraceSession()
        observe(manager, session, "ignored")  # the first label sticks
        assert manager._observers == [sanitizer, session]
        sanitizer.on_cycle(5)
        session.on_cycle(5)
        slot = manager.allocate(0)
        manager.release_head(0)
        manager._append_free(slot)
        assert [v.kind for v in sanitizer.violations] == ["double-free"]
        frees = [event for event in session.ring if event.kind == "free"]
        assert [(e.cycle, e.component, e.value) for e in frees] == [
            (5, "bufA", slot),
            (5, "bufA", slot),
        ]

    def test_use_after_free_is_reported(self):
        sanitizer, manager = make_manager()
        sanitizer.on_cycle(3)
        held = manager.allocate(0)
        # Corrupt the free-list head register to point at the in-use slot:
        # the next allocation hands out storage that still belongs to the
        # queued packet.
        manager._next[held] = manager._free_head
        manager._free_head = held
        manager._free_count += 1
        got = manager.allocate(1)
        assert got == held
        kinds = [violation.kind for violation in sanitizer.violations]
        assert "use-after-free" in kinds
        violation = sanitizer.violations[kinds.index("use-after-free")]
        assert violation.slot == held
        assert violation.buffer == "bufA"
        assert any("allocate" in entry for entry in violation.trace)


class TestPointerScan:
    def test_pointer_cycle_is_reported(self):
        sanitizer, manager = make_manager()
        first = manager.allocate(0)
        second = manager.allocate(0)
        manager._next[second] = first  # loop the destination list
        sanitizer.scan()
        kinds = {violation.kind for violation in sanitizer.violations}
        assert "pointer-cycle" in kinds
        violation = next(
            v for v in sanitizer.violations if v.kind == "pointer-cycle"
        )
        assert violation.slot == first
        assert "list 0" in violation.message

    def test_pointer_leak_is_reported(self):
        sanitizer, manager = make_manager()
        first = manager.allocate(0)
        second = manager.allocate(0)
        manager._next[first] = NO_SLOT  # truncate the chain before `second`
        sanitizer.scan()
        leaks = [
            violation
            for violation in sanitizer.violations
            if violation.kind == "pointer-leak"
        ]
        assert [violation.slot for violation in leaks] == [second]

    def test_cross_link_is_reported(self):
        sanitizer, manager = make_manager()
        first = manager.allocate(0)
        second = manager.allocate(1)
        manager._next[first] = second  # list 0 now runs into list 1's slot
        sanitizer.scan()
        kinds = {violation.kind for violation in sanitizer.violations}
        assert "cross-link" in kinds

    def test_wild_pointer_is_reported(self):
        sanitizer, manager = make_manager()
        manager._free_head = 99  # points outside the 8-slot pool
        sanitizer.scan()
        kinds = [violation.kind for violation in sanitizer.violations]
        assert "wild-pointer" in kinds
        violation = sanitizer.violations[kinds.index("wild-pointer")]
        assert "99" in violation.message

    def test_retired_slots_are_not_leaks(self):
        sanitizer, manager = make_manager()
        manager.retire_slot()
        sanitizer.scan()
        assert sanitizer.clean


class TestPortBudget:
    def test_two_pushes_in_one_cycle_overrun_the_write_port(self):
        sanitizer = HardwareSanitizer()
        buffer = observe(FifoBuffer(4, 4), sanitizer, "switch0.in0")
        sanitizer.on_cycle(11)
        buffer.push(packet(0, destination=1), 1)
        buffer.push(packet(1, destination=2), 2)
        assert not sanitizer.clean
        violation = sanitizer.violations[0]
        assert violation.kind == "write-port-overrun"
        assert violation.buffer == "switch0.in0"
        assert violation.cycle == 11
        assert len(violation.trace) == 2

    def test_one_push_per_cycle_is_clean(self):
        sanitizer = HardwareSanitizer()
        buffer = observe(FifoBuffer(4, 4), sanitizer, "b")
        for cycle in range(4):
            sanitizer.on_cycle(cycle)
            buffer.push(packet(cycle, destination=cycle), cycle)
        assert sanitizer.clean

    def test_two_pops_in_one_cycle_overrun_a_single_read_port(self):
        sanitizer = HardwareSanitizer()
        buffer = observe(DamqBuffer(8, 4), sanitizer, "damq0")
        sanitizer.on_cycle(0)
        buffer.push(packet(0, destination=0), 0)
        sanitizer.on_cycle(1)
        buffer.push(packet(1, destination=1), 1)
        sanitizer.on_cycle(2)
        buffer.pop(0)
        buffer.pop(1)
        assert not sanitizer.clean
        violation = sanitizer.violations[0]
        assert violation.kind == "read-port-overrun"
        assert violation.buffer == "damq0"
        assert violation.cycle == 2

    def test_safc_may_pop_once_per_output(self):
        sanitizer = HardwareSanitizer()
        buffer = observe(SafcBuffer(8, 4), sanitizer, "safc0")
        for cycle in range(4):
            sanitizer.on_cycle(cycle)
            buffer.push(packet(cycle, destination=cycle), cycle)
        sanitizer.on_cycle(10)
        for output in range(4):
            buffer.pop(output)
        assert sanitizer.clean

    def test_damq_buffer_adoption_also_sanitizes_its_slot_manager(self):
        sanitizer = HardwareSanitizer()
        buffer = observe(DamqBuffer(8, 4), sanitizer, "damq0")
        assert sanitizer in buffer._lists._observers
        buffer._lists._next[5] = 5  # free-list self-loop
        sanitizer.scan()
        assert any(
            violation.kind == "pointer-cycle"
            for violation in sanitizer.violations
        )


class TestArchZooAdoption:
    def test_reserved_damq_adoption_sanitizes_its_slot_manager(self):
        from repro.arch import DamqReservedBuffer

        sanitizer = HardwareSanitizer()
        buffer = observe(
            DamqReservedBuffer(8, 4, reserved=1), sanitizer, "rsv0"
        )
        assert sanitizer in buffer._lists._observers
        for cycle in range(4):
            sanitizer.on_cycle(cycle)
            buffer.push(packet(cycle, destination=cycle), cycle)
        sanitizer.scan()
        assert sanitizer.clean

    def test_crosspoint_read_ports_are_per_output(self):
        from repro.arch import CrosspointBuffer

        sanitizer = HardwareSanitizer()
        buffer = observe(CrosspointBuffer(8, 4), sanitizer, "cq0")
        for cycle in range(4):
            sanitizer.on_cycle(cycle)
            buffer.push(packet(cycle, destination=cycle), cycle)
        # Every crosspoint has its own read port: four pops in one cycle
        # are legal...
        sanitizer.on_cycle(10)
        for output in range(4):
            buffer.pop(output)
        assert sanitizer.clean
        # ...but the pool still has one write port, so refilling all four
        # crosspoints in a single cycle is an overrun.
        sanitizer.on_cycle(20)
        for output in range(4):
            buffer.push(packet(10 + output, destination=output), output)
        assert not sanitizer.clean
        assert sanitizer.violations[0].kind == "write-port-overrun"


class TestReporting:
    def test_assert_clean_raises_with_full_report(self):
        sanitizer, manager = make_manager()
        slot = manager.allocate(0)
        manager.release_head(0)
        manager._append_free(slot)
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.assert_clean()
        text = str(excinfo.value)
        assert "double-free" in text
        assert "bufA" in text

    def test_report_is_json_able(self):
        import json

        sanitizer, manager = make_manager()
        manager._free_head = 42
        sanitizer.scan()
        payload = json.loads(json.dumps(sanitizer.report()))
        assert payload["clean"] is False
        assert payload["violations"][0]["kind"] == "wild-pointer"

    def test_violations_beyond_cap_are_counted_not_stored(self):
        sanitizer = HardwareSanitizer(max_violations=2)
        for index in range(5):
            sanitizer.record("write-port-overrun", "b", f"overrun {index}")
        assert len(sanitizer.violations) == 2
        assert sanitizer.dropped == 3
        assert not sanitizer.clean

    def test_sanitize_enabled_parses_env_values(self):
        def sanitize(value):
            return env_instrumentation({"REPRO_SANITIZE": value}).sanitize

        assert not env_instrumentation({}).sanitize
        assert not sanitize("")
        assert not sanitize("0")
        assert sanitize("1")
        assert sanitize("yes")
