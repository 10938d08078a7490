"""Unit tests for the telemetry subsystem (repro.telemetry).

Covers the metrics registry's bit-exact snapshot/restore/merge contract,
the bounded event ring's drop accounting, the VCD and Chrome trace
exporters (written files must satisfy their own validators), the traced
simulator's counter reconciliation against the plain datapath's own
accounting, and chip-port adoption.
"""

import json

import pytest

from repro.chip import ChipNetwork
from repro.errors import ConfigurationError
from repro.instrument import ObservedOmegaNetworkSimulator, observe
from repro.network.simulator import NetworkConfig
from repro.telemetry import (
    EventRing,
    MetricsRegistry,
    TraceEvent,
    TraceSession,
    config_tag,
    jain_fairness,
    read_vcd,
    render_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_vcd,
)
from repro.telemetry.report import merge_metrics_documents, metrics_files


class TestEventRing:
    def test_append_and_iterate_in_order(self):
        ring = EventRing(capacity=4)
        for cycle in range(3):
            ring.append(TraceEvent(cycle, "enqueue", "b", 0, 1, 2))
        assert [event.cycle for event in ring] == [0, 1, 2]
        assert len(ring) == 3
        assert ring.emitted == 3
        assert ring.dropped == 0

    def test_overflow_evicts_oldest_and_counts_drops(self):
        ring = EventRing(capacity=2)
        for cycle in range(5):
            ring.append(TraceEvent(cycle, "enqueue", "b", 0, 1, 2))
        assert [event.cycle for event in ring.events()] == [3, 4]
        assert ring.emitted == 5
        assert ring.dropped == 3

    def test_capacity_zero_counts_but_retains_nothing(self):
        ring = EventRing(capacity=0)
        ring.append(TraceEvent(0, "enqueue", "b", 0, 1, 2))
        assert len(ring) == 0
        assert ring.emitted == 1
        assert ring.dropped == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            EventRing(capacity=-1)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", buffer="a")
        second = registry.counter("hits", buffer="a")
        assert first is second
        assert registry.counter("hits", buffer="b") is not first

    def test_snapshot_survives_json_round_trip_exactly(self):
        registry = MetricsRegistry()
        registry.counter("c", x="1").inc(41)
        registry.gauge("g").set(7)
        hist = registry.histogram("h")
        for value in (0.1, 0.2, 0.7, 3.14159, 1e-12):
            hist.record(value)
        state = json.loads(json.dumps(registry.snapshot_state()))
        restored = MetricsRegistry()
        restored.restore_state(state)
        assert restored.snapshot_state() == registry.snapshot_state()

    def test_restore_mutates_cached_references_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc(5)
        state = registry.snapshot_state()
        counter.inc(10)
        registry.restore_state(state)
        assert counter.value == 5  # the same object, rewound

    def test_restore_zeroes_metrics_absent_from_snapshot(self):
        registry = MetricsRegistry()
        state = registry.snapshot_state()  # empty
        straggler = registry.counter("late")
        straggler.inc(3)
        registry.restore_state(state)
        assert straggler.value == 0

    def test_merge_adds_counters_and_merges_histograms(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(2)
        right.counter("c").inc(3)
        for value in (1.0, 2.0):
            left.histogram("h").record(value)
        for value in (3.0, 4.0, 5.0):
            right.histogram("h").record(value)
        left.merge(right)
        assert left.value("c") == 5
        merged = left.histogram("h").stats
        reference = MetricsRegistry().histogram("h").stats
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            reference.add(value)
        assert merged.get_state() == reference.get_state()

    def test_merge_gauges_keeps_maximum(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.gauge("g").set(4)
        right.gauge("g").set(9)
        left.merge(right)
        assert left.gauge("g").value == 9
        untouched = MetricsRegistry()
        other = MetricsRegistry()
        other.gauge("g").set(2)
        untouched.merge(other)
        assert untouched.gauge("g").value == 2

    def test_version_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.restore_state({"version": 999, "metrics": []})
        with pytest.raises(ConfigurationError):
            registry.merge_state({"version": 999, "metrics": []})

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a="1", b="2") is registry.counter(
            "c", b="2", a="1"
        )


class TestJainFairness:
    def test_even_shares_are_perfectly_fair(self):
        # Exact: (4*5)^2 / (4 * 4*25) = 400/400, no rounding involved.
        assert jain_fairness([5, 5, 5, 5]) == 1.0  # repro: noqa=REP004 exact ratio

    def test_single_claimant_is_one_over_n(self):
        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_nothing_served_reports_fair(self):
        # Both hit the literal-1.0 sentinel branch for empty service.
        assert jain_fairness([0, 0]) == 1.0  # repro: noqa=REP004 exact sentinel
        assert jain_fairness([]) == 1.0  # repro: noqa=REP004 exact sentinel


def _events():
    return [
        TraceEvent(0, "enqueue", "stage0.switch0.in0", 1, 1, 3),
        TraceEvent(1, "enqueue", "stage0.switch0.in0", 1, 2, 2),
        TraceEvent(1, "grant", "stage0.switch0", 0, 1, 1),
        TraceEvent(2, "dequeue", "stage0.switch0.in0", 1, 1, 3),
        TraceEvent(3, "alloc", "stage0.switch1.in2", 0, 5, 1),
        TraceEvent(4, "deliver", "network", 3, 1, 42),
    ]


class TestVcdExport:
    def test_written_file_passes_its_own_parser(self, tmp_path):
        path = write_vcd(_events(), tmp_path / "out.vcd", cycle_clocks=12)
        info = read_vcd(path)
        # q1 + free on switch0.in0, free on switch1.in2.
        assert set(info["signals"]) == {
            "stage0.switch0.in0.q1",
            "stage0.switch0.in0.free",
            "stage0.switch1.in2.free",
        }
        assert info["times"] > 0 and info["changes"] > 0

    def test_timestamps_scale_by_cycle_clocks(self, tmp_path):
        path = write_vcd(_events(), tmp_path / "out.vcd", cycle_clocks=12)
        stamps = [
            int(line[1:])
            for line in path.read_text().splitlines()
            if line.startswith("#")
        ]
        assert stamps == sorted(stamps)
        assert all(stamp % 12 == 0 for stamp in stamps)

    def test_output_is_deterministic(self, tmp_path):
        first = write_vcd(_events(), tmp_path / "a.vcd").read_text()
        second = write_vcd(_events(), tmp_path / "b.vcd").read_text()
        assert first == second

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.vcd"
        bad.write_text("$scope module top $end\nnot a vcd line\n")
        with pytest.raises(ConfigurationError):
            read_vcd(bad)


class TestChromeTraceExport:
    def test_written_file_passes_its_own_validator(self, tmp_path):
        path = write_chrome_trace(
            _events(), tmp_path / "t.json", cycle_clocks=12
        )
        counts = validate_chrome_trace(path)
        assert counts["counters"] == 3  # enqueue x2 + dequeue
        assert counts["instants"] == 3  # grant + alloc + deliver
        assert counts["metadata"] > 0

    def test_counter_events_carry_queue_and_free_args(self, tmp_path):
        path = write_chrome_trace(_events(), tmp_path / "t.json")
        document = json.loads(path.read_text())
        counters = [
            event
            for event in document["traceEvents"]
            if event["ph"] == "C"
        ]
        assert counters[0]["args"] == {"q1": 1, "free": 3}

    def test_invalid_document_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"no": "traceEvents"}]))
        with pytest.raises(ConfigurationError):
            validate_chrome_trace(bad)


class TestTracedSimulator:
    CONFIG = NetworkConfig(
        num_ports=16, radix=4, offered_load=0.6, seed=7
    )

    @pytest.fixture(scope="class")
    def traced(self):
        simulator = ObservedOmegaNetworkSimulator(self.CONFIG, [TraceSession()])
        simulator.run(warmup_cycles=0, measure_cycles=200)
        return simulator

    def test_counters_reconcile_with_datapath(self, traced):
        metrics = traced.observer(TraceSession).metrics
        delivered_total = sum(
            sink.received for row in traced._exit_sinks for sink in row
        )
        assert metrics.value("packets_delivered_total") == delivered_total
        assert (
            metrics.value("packets_delivered_measured")
            == traced.meters.delivered
        )
        enqueued = metrics.value("buffer_enqueues_total")
        dequeued = metrics.value("buffer_dequeues_total")
        assert enqueued - dequeued == traced.total_buffered_packets
        assert metrics.value("arbiter_grants_total") == dequeued
        assert metrics.value("link_transfers_total") >= delivered_total

    def test_last_stage_dequeues_equal_deliveries(self, traced):
        metrics = traced.observer(TraceSession).metrics
        last = traced.topology.num_stages - 1
        last_stage_dequeues = sum(
            counter.value
            for counter in metrics.counters("buffer_dequeues_total")
            if counter.labels["buffer"].startswith(f"stage{last}.")
        )
        assert last_stage_dequeues == metrics.value("packets_delivered_total")

    def test_events_are_cycle_ordered(self, traced):
        cycles = [event.cycle for event in traced.observer(TraceSession).ring]
        assert cycles == sorted(cycles)

    def test_block_events_pair_with_unblocks(self, traced):
        blocks = sum(
            1 for event in traced.observer(TraceSession).ring if event.kind == "block"
        )
        unblocks = sum(
            1 for event in traced.observer(TraceSession).ring if event.kind == "unblock"
        )
        assert abs(blocks - unblocks) <= traced.observer(TraceSession).metrics.value(
            "flow_control_blocks_total"
        )

    def test_export_report_round_trip(self, traced, tmp_path):
        traced.observer(TraceSession).export(tmp_path, traced)
        registry, info = merge_metrics_documents(metrics_files(tmp_path))
        text = render_report(registry, info)
        assert config_tag(self.CONFIG) in text
        assert "arbitration fairness" in text
        assert registry.snapshot_state() == (
            traced.observer(TraceSession).metrics.snapshot_state()
        )

    def test_config_tag_is_filesystem_safe(self):
        tag = config_tag(self.CONFIG)
        assert "/" not in tag and "." not in tag
        assert tag == "damq_blocking_uniform_n16_r4_s4_load0p6_seed7"


class TestMetricsOnlyMode:
    def test_ring_empty_but_counters_complete(self):
        session = TraceSession(capacity=0)
        simulator = ObservedOmegaNetworkSimulator(
            NetworkConfig(num_ports=16, radix=4, offered_load=0.5, seed=3),
            [session],
        )
        simulator.run(warmup_cycles=0, measure_cycles=100)
        assert len(session.ring) == 0
        assert session.ring.emitted > 0
        assert session.metrics.value("buffer_enqueues_total") > 0

    def test_export_writes_only_the_metrics_document(self, tmp_path):
        session = TraceSession(capacity=0)
        simulator = ObservedOmegaNetworkSimulator(
            NetworkConfig(num_ports=16, radix=4, offered_load=0.5, seed=3),
            [session],
        )
        simulator.run(warmup_cycles=0, measure_cycles=50)
        written = session.export(tmp_path, simulator)
        assert [path.name.endswith(".metrics.json") for path in written] == [
            True
        ]


class TestChipAdoption:
    def test_port_counters_reconcile_across_a_link(self):
        session = TraceSession()
        network = ChipNetwork()
        network.add_node("A")
        network.add_node("B")
        network.connect("A", 0, "B", 0)
        for node in network.nodes.values():
            session.adopt_chip(node.chip)
        circuit = network.open_circuit(["A", "B"])
        network.send(circuit, b"telemetry payload " * 4)
        network.run_until_idle()
        metrics = session.metrics
        sent = metrics.value("chip_packets_sent_total")
        received = metrics.value("chip_packets_received_total")
        assert sent > 0
        assert received == sent
        link_events = [
            event for event in session.ring if event.kind == "link"
        ]
        assert len(link_events) > 0
        assert metrics.value("slot_retires_total") >= 0

    def test_adopting_twice_is_idempotent(self):
        session = TraceSession()
        network = ChipNetwork()
        network.add_node("A")
        chip = network.nodes["A"].chip
        session.adopt_chip(chip)
        session.adopt_chip(chip)
        assert len(session.metrics.counters("chip_packets_sent_total")) == 5


class TestArchZooTracing:
    """Telemetry adoption generalizes to the architecture-zoo classes."""

    def test_adopt_arbiter_covers_the_scheduler_zoo(self):
        from repro.arch.schedulers import (
            CrosspointScheduler,
            IterativeScheduler,
        )

        session = TraceSession()
        lqf = observe(CrosspointScheduler(2, 2), session, "sw0")
        islip = observe(IterativeScheduler(2, 2, iterations=2), session, "sw1")
        assert isinstance(lqf, CrosspointScheduler)
        assert lqf._observers == [session]
        assert islip._observers == [session]
        # Re-observation is a no-op on the same live object.
        assert observe(lqf, session, "sw0") is lqf
        assert lqf._observers == [session]

    def test_foreign_scheduler_subclass_is_observed(self):
        from repro.switch.scheduler import Scheduler

        class Custom(Scheduler):
            def __init__(self):
                self.num_inputs = 2
                self.num_outputs = 2

            @property
            def kind(self):
                return "custom"

            def arbitrate(self, buffers, blocked, lengths=None):
                return []

            def snapshot_state(self):
                return {}

            def restore_state(self, state):
                pass

        session = TraceSession()
        custom = observe(Custom(), session, "custom")
        assert custom._observers == [session]
        assert custom.arbitrate([], lambda i, o, p: False, [[1], [0]]) == []
        assert session.metrics.value("arbiter_denies_total") == 1

    def test_non_protocol_object_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot observe"):
            observe({"not": "a component"}, TraceSession(), "bad")

    def test_traced_scheduler_records_grants_and_denies(self):
        from repro.arch.schedulers import CrosspointScheduler
        from repro.core.packet import Packet
        from repro.core.registry import make_buffer

        session = TraceSession()
        scheduler = observe(CrosspointScheduler(2, 2), session, "sw0")
        buffers = [make_buffer("CQ", 8, 2), make_buffer("CQ", 8, 2)]
        for input_port, buffer in enumerate(buffers):
            buffer.push(
                Packet(packet_id=input_port, source=0, destination=0), 0
            )
        grants = scheduler.arbitrate(buffers, lambda i, o, p: False)
        # Both inputs contend for output 0: one grant, one deny.
        assert len(grants) == 1
        assert session.metrics.value("arbiter_grants_total") == 1
        assert session.metrics.value("arbiter_denies_total") == 1
        kinds = {event.kind for event in session.ring}
        assert {"grant", "deny"} <= kinds

    def test_arch_buffers_are_traceable(self):
        from repro.arch import CrosspointBuffer, DamqReservedBuffer
        from repro.core.packet import Packet

        session = TraceSession()
        reserved = observe(DamqReservedBuffer(8, 4, reserved=1), session, "rsv0")
        crosspoint = observe(CrosspointBuffer(8, 4), session, "cq0")
        assert reserved._observers == [session]
        assert crosspoint._observers == [session]
        # The reserved DAMQ inherits the slot-manager adoption path.
        assert reserved._lists._observers == [session]
        crosspoint.push(Packet(packet_id=0, source=0, destination=2), 2)
        assert crosspoint.pop(2).packet_id == 0
        assert session.metrics.value("buffer_enqueues_total") == 1
        assert session.metrics.value("buffer_dequeues_total") == 1
