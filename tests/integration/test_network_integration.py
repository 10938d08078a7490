"""Cross-module integration tests of the Omega-network simulator."""

import pytest

from repro.network import NetworkConfig
from repro.network.simulator import OmegaNetworkSimulator
from repro.switch.flow_control import Protocol


class TestBlockingNeverOverflows:
    @pytest.mark.parametrize("kind", ["FIFO", "SAMQ", "SAFC", "DAMQ"])
    def test_occupancy_never_exceeds_capacity(self, kind):
        config = NetworkConfig(
            num_ports=16,
            buffer_kind=kind,
            slots_per_buffer=4,
            protocol=Protocol.BLOCKING,
            offered_load=1.0,
            seed=31,
        )
        simulator = OmegaNetworkSimulator(config)
        for _ in range(300):
            simulator.step()
            for row in simulator.switches:
                for switch in row:
                    for buffer in switch.buffers:
                        assert buffer.occupancy <= buffer.capacity

    def test_damq_structural_invariants_under_saturation(self):
        config = NetworkConfig(
            num_ports=16,
            buffer_kind="DAMQ",
            offered_load=1.0,
            seed=77,
        )
        simulator = OmegaNetworkSimulator(config)
        for cycle in range(200):
            simulator.step()
            if cycle % 20 == 0:
                for row in simulator.switches:
                    for switch in row:
                        for buffer in switch.buffers:
                            buffer.check_invariants()


class TestPacketSizesExtension:
    """Variable-length packets — the paper's stated future direction."""

    def test_two_slot_packets_flow_end_to_end(self):
        config = NetworkConfig(
            num_ports=16,
            buffer_kind="DAMQ",
            slots_per_buffer=4,
            offered_load=0.3,
            packet_size=2,
            seed=13,
        )
        simulator = OmegaNetworkSimulator(config)
        result = simulator.run(warmup_cycles=50, measure_cycles=300)
        assert result.meters.delivered > 0
        assert all(sink.misrouted == 0 for sink in simulator.sinks)

    def test_damq_gains_more_than_fifo_with_variable_packets(self):
        """The DAMQ's dynamic allocation should cope better with 2-slot
        packets (more fragmentation pressure on static partitions)."""
        results = {}
        for kind in ("FIFO", "DAMQ"):
            config = NetworkConfig(
                num_ports=16,
                buffer_kind=kind,
                slots_per_buffer=4,
                offered_load=1.0,
                packet_size=2,
                seed=13,
            )
            results[kind] = (
                OmegaNetworkSimulator(config)
                .run(warmup_cycles=100, measure_cycles=600)
                .delivered_throughput
            )
        assert results["DAMQ"] > results["FIFO"]


class TestArbiterEffects:
    def test_smart_arbitration_not_worse_than_dumb_at_saturation(self):
        throughput = {}
        for arbiter in ("smart", "dumb"):
            config = NetworkConfig(
                num_ports=16,
                buffer_kind="DAMQ",
                offered_load=1.0,
                arbiter_kind=arbiter,
                seed=99,
            )
            throughput[arbiter] = (
                OmegaNetworkSimulator(config)
                .run(warmup_cycles=100, measure_cycles=600)
                .delivered_throughput
            )
        assert throughput["smart"] >= throughput["dumb"] - 0.03


class TestHotspotMechanics:
    def test_hot_sink_receives_most_traffic(self):
        config = NetworkConfig(
            num_ports=16,
            buffer_kind="DAMQ",
            traffic_kind="hotspot",
            hot_fraction=0.3,
            offered_load=0.3,
            seed=3,
        )
        simulator = OmegaNetworkSimulator(config)
        for _ in range(400):
            simulator.step()
        received = [sink.received for sink in simulator.sinks]
        assert received[0] == max(received)
        assert received[0] > 3 * (sum(received) - received[0]) / 15

    def test_sources_stall_under_tree_saturation(self):
        config = NetworkConfig(
            num_ports=16,
            buffer_kind="DAMQ",
            traffic_kind="hotspot",
            hot_fraction=0.25,
            offered_load=0.9,
            seed=4,
        )
        simulator = OmegaNetworkSimulator(config)
        for _ in range(500):
            simulator.step()
        stalls = sum(source.stalled_cycles for source in simulator.sources)
        assert stalls > 0  # backpressure reached the generators
