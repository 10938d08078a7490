"""Unit tests for the link-serialization mode (variable-length extension).

With ``serialize_links=True`` a packet of ``size`` slots occupies its link
and its buffer's read port for ``size`` network cycles, landing downstream
``size - 1`` cycles after its grant.  One-slot packets must behave exactly
as in the paper's synchronized model.
"""

import pytest

from repro.network import NetworkConfig, simulate
from repro.network.simulator import OmegaNetworkSimulator
from repro.switch.flow_control import Protocol

SMALL = NetworkConfig(
    num_ports=16,
    radix=4,
    buffer_kind="DAMQ",
    slots_per_buffer=8,
    seed=12,
    serialize_links=True,
)


class TestEquivalenceForUnitPackets:
    def test_identical_results_with_single_slot_packets(self):
        plain = simulate(
            SMALL.with_overrides(serialize_links=False, offered_load=0.6),
            100,
            400,
        )
        serialized = simulate(
            SMALL.with_overrides(offered_load=0.6), 100, 400
        )
        assert plain.delivered_throughput == serialized.delivered_throughput
        assert plain.average_latency == serialized.average_latency


class TestSerializedTransfers:
    def test_multi_slot_packets_arrive_intact(self):
        simulator = OmegaNetworkSimulator(
            SMALL.with_overrides(offered_load=0.3, packet_size=3)
        )
        result = simulator.run(warmup_cycles=50, measure_cycles=400)
        assert result.meters.delivered > 0
        assert all(sink.misrouted == 0 for sink in simulator.sinks)

    def test_conservation_includes_in_flight(self):
        simulator = OmegaNetworkSimulator(
            SMALL.with_overrides(offered_load=0.8, packet_size=2)
        )
        for _ in range(157):  # odd count so transfers are mid-flight
            simulator.step()
        generated = sum(source.generated for source in simulator.sources)
        delivered = sum(sink.received for sink in simulator.sinks)
        queued = sum(len(source.queue) for source in simulator.sources)
        buffered = simulator.total_buffered_packets
        assert generated == (
            delivered + queued + buffered + simulator.in_flight_count
        )

    def test_latency_reflects_serialization(self):
        """Three-slot packets must be slower per hop than one-slot ones."""
        small = simulate(
            SMALL.with_overrides(offered_load=0.1, packet_size=1), 100, 500
        )
        large = simulate(
            SMALL.with_overrides(offered_load=0.1, packet_size=3),
            100,
            500,
        )
        # Four transfers (inject + 2 hops + deliver... 16 ports = 2 stages:
        # inject + stage0 + stage1) each gain 2 cycles of serialization:
        # at least +4 network cycles = +48 clocks end to end.
        assert large.average_latency > small.average_latency + 40

    def test_throughput_in_slots_bounded_by_link_capacity(self):
        result = simulate(
            SMALL.with_overrides(offered_load=1.0, packet_size=2), 150, 600
        )
        slots_per_cycle = result.delivered_throughput * 2
        assert slots_per_cycle <= 1.0 + 1e-9

    def test_serialized_saturation_roughly_halves_for_double_size(self):
        unit = simulate(
            SMALL.with_overrides(offered_load=1.0, packet_size=1), 150, 600
        ).delivered_throughput
        double = simulate(
            SMALL.with_overrides(offered_load=1.0, packet_size=2), 150, 600
        ).delivered_throughput
        assert 0.35 < double / unit < 0.75

    def test_discarding_protocol_with_serialization(self):
        result = simulate(
            SMALL.with_overrides(
                protocol=Protocol.DISCARDING,
                offered_load=0.9,
                packet_size=2,
            ),
            100,
            400,
        )
        assert result.meters.delivered > 0

    def test_mixed_sizes_serialize_cleanly(self):
        simulator = OmegaNetworkSimulator(
            SMALL.with_overrides(
                offered_load=0.7, packet_size=1, packet_size_max=3
            )
        )
        for _ in range(300):
            simulator.step()
            for row in simulator.switches:
                for switch in row:
                    for buffer in switch.buffers:
                        assert buffer.occupancy <= buffer.capacity
        assert sum(sink.received for sink in simulator.sinks) > 0
