"""Unit tests for traffic patterns, sources and sinks."""

import pytest

from repro.core.packet import PacketFactory
from repro.errors import ConfigurationError
from repro.network.sources import Sink, Source
from repro.network.topology import OmegaTopology
from repro.network.traffic import (
    HotSpotTraffic,
    PermutationTraffic,
    UniformTraffic,
    make_traffic,
)
from repro.utils.rng import RandomStream


class TestUniformTraffic:
    def test_destinations_cover_all_ports(self):
        pattern = UniformTraffic(16)
        rng = RandomStream(1, "t")
        seen = {pattern.destination(0, rng) for _ in range(2000)}
        assert seen == set(range(16))

    def test_roughly_uniform(self):
        pattern = UniformTraffic(4)
        rng = RandomStream(2, "t")
        counts = [0] * 4
        for _ in range(8000):
            counts[pattern.destination(0, rng)] += 1
        for count in counts:
            assert 0.2 < count / 8000 < 0.3


class TestHotSpotTraffic:
    def test_hot_port_receives_excess(self):
        pattern = HotSpotTraffic(64, hot_fraction=0.05)
        rng = RandomStream(3, "t")
        draws = [pattern.destination(0, rng) for _ in range(20000)]
        hot_share = draws.count(0) / len(draws)
        # 5% redirected + 1/64 uniform background ~ 6.5%
        assert 0.05 < hot_share < 0.09

    def test_zero_fraction_degenerates_to_uniform(self):
        pattern = HotSpotTraffic(8, hot_fraction=0.0)
        rng = RandomStream(4, "t")
        seen = {pattern.destination(0, rng) for _ in range(500)}
        assert len(seen) == 8

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HotSpotTraffic(8, hot_fraction=1.5)


class TestPermutationTraffic:
    def test_fixed_mapping(self):
        pattern = PermutationTraffic(4, mapping=[2, 3, 0, 1])
        rng = RandomStream(5, "t")
        assert pattern.destination(0, rng) == 2
        assert pattern.destination(3, rng) == 1

    def test_default_is_reversal(self):
        pattern = PermutationTraffic(4)
        rng = RandomStream(5, "t")
        assert pattern.destination(0, rng) == 3

    def test_non_permutation_rejected(self):
        with pytest.raises(ConfigurationError):
            PermutationTraffic(4, mapping=[0, 0, 1, 2])


class TestMakeTraffic:
    def test_by_name(self):
        assert make_traffic("uniform", 8).kind == "uniform"
        assert make_traffic("hotspot", 8).kind == "hotspot"
        assert make_traffic("permutation", 8).kind == "permutation"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_traffic("bursty", 8)


def make_source(offered=1.0, queue_capacity=4, port=0):
    topology = OmegaTopology(16, 4)
    return Source(
        port=port,
        offered_load=offered,
        topology=topology,
        pattern=UniformTraffic(16),
        factory=PacketFactory(),
        rng=RandomStream(11, f"s{port}"),
        queue_capacity=queue_capacity,
    )


class TestSource:
    def test_generates_at_full_load(self):
        source = make_source(offered=1.0)
        packet = source.maybe_generate(cycle=0)
        assert packet is not None
        assert source.head() is packet
        assert packet.route == source.topology.route(0, packet.destination)

    def test_creation_offset_within_frame(self):
        source = make_source()
        packet = source.maybe_generate(cycle=3)
        assert 3 * 12 <= packet.created_at < 4 * 12

    def test_stalls_when_queue_full(self):
        source = make_source(offered=1.0, queue_capacity=2)
        assert source.maybe_generate(0) is not None
        assert source.maybe_generate(1) is not None
        assert source.maybe_generate(2) is None  # stalled
        assert source.stalled_cycles == 1
        source.dequeue()
        assert source.maybe_generate(3) is not None

    def test_zero_load_generates_nothing(self):
        source = make_source(offered=0.0)
        assert all(source.maybe_generate(c) is None for c in range(50))
        assert source.generated == 0

    def test_generation_rate_approximates_load(self):
        source = make_source(offered=0.3, queue_capacity=0)
        for cycle in range(5000):
            source.maybe_generate(cycle)
            if source.queue:
                source.dequeue()
        assert 0.27 < source.generated / 5000 < 0.33

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_source(offered=1.2)


class TestSink:
    def test_delivery_stamps_clock(self):
        sink = Sink(port=3, cycle_clocks=12)
        factory = PacketFactory()
        packet = factory.create(0, 3, created_at=0)
        sink.deliver(packet, cycle=10)
        assert packet.delivered_at == 11 * 12
        assert sink.received == 1
        assert sink.misrouted == 0

    def test_misrouted_counted(self):
        sink = Sink(port=3)
        packet = PacketFactory().create(0, destination=5)
        sink.deliver(packet, cycle=0)
        assert sink.misrouted == 1
