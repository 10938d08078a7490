"""Unit tests for the Omega-network simulator (small configurations)."""

import pytest

from repro.errors import ConfigurationError
from repro.network.metrics import Meters
from repro.network.simulator import (
    SOURCE_QUEUE_CAPACITY,
    NetworkConfig,
    OmegaNetworkSimulator,
    simulate,
)
from repro.switch.flow_control import Protocol

#: A small 16-port network keeps these tests fast.
SMALL = NetworkConfig(num_ports=16, radix=4, seed=5)


class TestConstruction:
    def test_paper_dimensions(self):
        simulator = OmegaNetworkSimulator(NetworkConfig())
        assert len(simulator.switches) == 3
        assert len(simulator.switches[0]) == 16
        assert len(simulator.sources) == 64
        assert len(simulator.sinks) == 64

    def test_single_stage_network(self):
        simulator = OmegaNetworkSimulator(
            SMALL.with_overrides(num_ports=4, radix=4)
        )
        assert len(simulator.switches) == 1

    @pytest.mark.parametrize(
        "num_ports,radix,stages",
        [(16, 2, 4), (16, 4, 2), (64, 8, 2), (8, 2, 3)],
    )
    def test_other_radices_work_end_to_end(self, num_ports, radix, stages):
        config = SMALL.with_overrides(
            num_ports=num_ports,
            radix=radix,
            slots_per_buffer=2 * radix,
            offered_load=0.4,
        )
        simulator = OmegaNetworkSimulator(config)
        assert len(simulator.switches) == stages
        result = simulator.run(warmup_cycles=30, measure_cycles=200)
        assert result.meters.delivered > 0
        assert all(sink.misrouted == 0 for sink in simulator.sinks)

    def test_config_overrides(self):
        config = SMALL.with_overrides(buffer_kind="FIFO", offered_load=0.9)
        assert config.buffer_kind == "FIFO"
        assert config.num_ports == 16  # untouched fields preserved

    def test_discarding_source_queues(self):
        # Both protocols hold packets at the source while stage 0 is full.
        for protocol in (Protocol.BLOCKING, Protocol.DISCARDING):
            simulator = OmegaNetworkSimulator(
                SMALL.with_overrides(protocol=protocol)
            )
            assert all(
                source.queue_capacity == SOURCE_QUEUE_CAPACITY
                for source in simulator.sources
            )


class TestConservation:
    @pytest.mark.parametrize("kind", ["FIFO", "SAMQ", "SAFC", "DAMQ"])
    def test_blocking_conserves_packets(self, kind):
        """generated = delivered + in flight (nothing lost, nothing made)."""
        simulator = OmegaNetworkSimulator(
            SMALL.with_overrides(
                buffer_kind=kind,
                protocol=Protocol.BLOCKING,
                offered_load=0.6,
            )
        )
        for _ in range(400):
            simulator.step()
        generated = sum(source.generated for source in simulator.sources)
        delivered = sum(sink.received for sink in simulator.sinks)
        queued_at_sources = sum(len(s.queue) for s in simulator.sources)
        in_network = simulator.total_buffered
        assert generated == delivered + queued_at_sources + in_network

    @pytest.mark.parametrize("kind", ["FIFO", "DAMQ"])
    def test_discarding_conserves_packets(self, kind):
        simulator = OmegaNetworkSimulator(
            SMALL.with_overrides(
                buffer_kind=kind,
                protocol=Protocol.DISCARDING,
                offered_load=0.9,
            )
        )
        simulator._measure_start_clock = 0  # count discards from cycle 0
        for _ in range(400):
            simulator.step()
        generated = sum(source.generated for source in simulator.sources)
        delivered = sum(sink.received for sink in simulator.sinks)
        discarded = simulator.meters.discarded
        in_network = simulator.total_buffered
        queued_at_sources = sum(len(s.queue) for s in simulator.sources)
        assert generated == (
            delivered + discarded + in_network + queued_at_sources
        )

    def test_no_misrouting(self):
        simulator = OmegaNetworkSimulator(SMALL.with_overrides(offered_load=0.7))
        for _ in range(300):
            simulator.step()
        assert all(sink.misrouted == 0 for sink in simulator.sinks)


class TestMeasurement:
    def test_run_returns_result(self):
        result = simulate(SMALL.with_overrides(offered_load=0.3), 50, 200)
        assert result.buffer_kind == "DAMQ"
        assert result.meters.cycles == 200
        assert 0.2 < result.delivered_throughput < 0.4
        assert result.average_latency > 36  # three hops minimum

    def test_warmup_packets_excluded(self):
        simulator = OmegaNetworkSimulator(SMALL.with_overrides(offered_load=0.5))
        result = simulator.run(warmup_cycles=100, measure_cycles=100)
        # Only packets created after warm-up may be counted.
        assert result.meters.generated <= 16 * 100

    def test_zero_load_network_stays_silent(self):
        result = simulate(SMALL.with_overrides(offered_load=0.0), 10, 50)
        assert result.meters.generated == 0
        assert result.meters.delivered == 0

    def test_invalid_windows_rejected(self):
        simulator = OmegaNetworkSimulator(SMALL)
        with pytest.raises(ConfigurationError):
            simulator.run(warmup_cycles=-1, measure_cycles=10)
        with pytest.raises(ConfigurationError):
            simulator.run(warmup_cycles=0, measure_cycles=0)

    def test_determinism_same_seed(self):
        first = simulate(SMALL.with_overrides(offered_load=0.5), 50, 200)
        second = simulate(SMALL.with_overrides(offered_load=0.5), 50, 200)
        assert first.delivered_throughput == second.delivered_throughput
        assert first.average_latency == second.average_latency

    def test_different_seeds_differ(self):
        first = simulate(SMALL.with_overrides(offered_load=0.5, seed=1), 50, 200)
        second = simulate(SMALL.with_overrides(offered_load=0.5, seed=2), 50, 200)
        assert first.average_latency != second.average_latency

    def test_network_latency_below_total_latency(self):
        result = simulate(SMALL.with_overrides(offered_load=0.5), 50, 300)
        assert result.average_network_latency <= result.average_latency


class TestFlowControlFidelity:
    def test_invalid_fidelity_rejected(self):
        with pytest.raises(ConfigurationError):
            OmegaNetworkSimulator(
                SMALL.with_overrides(flow_control_fidelity="psychic")
            )

    def test_conservative_network_still_delivers(self):
        result = simulate(
            SMALL.with_overrides(
                buffer_kind="SAMQ",
                offered_load=0.3,
                flow_control_fidelity="conservative",
            ),
            50,
            300,
        )
        assert result.meters.delivered > 0
        assert 0.2 < result.delivered_throughput < 0.4

    def test_conservative_hurts_partitioned_buffers_at_saturation(self):
        throughput = {}
        for fidelity in ("precise", "conservative"):
            throughput[fidelity] = simulate(
                SMALL.with_overrides(
                    buffer_kind="SAMQ",
                    offered_load=1.0,
                    flow_control_fidelity=fidelity,
                ),
                100,
                500,
            ).delivered_throughput
        assert throughput["conservative"] < throughput["precise"]

    def test_fidelity_is_noop_for_damq(self):
        results = [
            simulate(
                SMALL.with_overrides(
                    buffer_kind="DAMQ",
                    offered_load=0.8,
                    flow_control_fidelity=fidelity,
                ),
                50,
                300,
            ).delivered_throughput
            for fidelity in ("precise", "conservative")
        ]
        assert results[0] == results[1]


class TestMeters:
    def test_normalization(self):
        meters = Meters(num_ports=8)
        meters.cycles = 100
        meters.delivered = 400
        assert meters.delivered_throughput == pytest.approx(0.5)

    def test_discard_fraction_empty(self):
        import math

        meters = Meters(num_ports=8)
        assert math.isnan(meters.discard_fraction)
