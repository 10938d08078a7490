"""Unit tests for the bit-exact simulator snapshot/restore machinery."""

from __future__ import annotations

import json

import pytest

from repro.core.packet import Packet, PacketFactory
from repro.errors import ConfigurationError
from repro.network.simulator import (
    SNAPSHOT_VERSION,
    NetworkConfig,
    OmegaNetworkSimulator,
    load_checkpoint,
    restore_simulator,
    resume_run,
    simulate,
)
from repro.switch.flow_control import Protocol
from repro.utils.rng import BatchedBernoulli, RandomStream
from repro.utils.stats import OnlineStats

BASE = dict(num_ports=16, radix=4, offered_load=0.7, seed=7)


def config(**overrides) -> NetworkConfig:
    return NetworkConfig(**{**BASE, **overrides})


def meters_state(simulator) -> dict:
    return simulator.meters.snapshot_state()


# ---------------------------------------------------------------------------
# Leaf components
# ---------------------------------------------------------------------------


def test_online_stats_state_round_trip_preserves_int_extrema():
    stats = OnlineStats()
    for value in (25, 30, 17):
        stats.add(value)
    clone = OnlineStats()
    clone.set_state(json.loads(json.dumps(stats.get_state())))
    assert clone.get_state() == stats.get_state()
    # add() keeps integer extrema as ints; restore must not widen them.
    assert isinstance(clone.minimum, int)
    assert isinstance(clone.maximum, int)


def test_random_stream_state_round_trip_is_draw_exact():
    stream = RandomStream(1988, "snap")
    stream.randint(0, 100)  # leave a half-word in the uint32 cache
    state = json.loads(json.dumps(stream.get_state()))
    expected = [stream.randint(0, 1000) for _ in range(8)]
    expected += [stream.random() for _ in range(8)]
    stream.set_state(state)
    actual = [stream.randint(0, 1000) for _ in range(8)]
    actual += [stream.random() for _ in range(8)]
    assert actual == expected


def test_batched_coin_matches_scalar_sequence_and_flush_state():
    """Batched draws equal scalar draws; flush lands on the scalar state.

    Components interleave other draws on the coin's stream only after a
    hit (when the block tail has been rewound), so that is the pattern
    exercised here.  After a flush the raw generator state must equal
    the one a scalar draw-per-call sequence leaves — that is what makes
    mid-run snapshots of a batched source bit-exact.
    """
    scalar = RandomStream(3, "coin")
    stream = RandomStream(3, "coin")
    coin = BatchedBernoulli(stream, 0.05)
    for _ in range(300):
        hit = coin.draw()
        assert hit == scalar.bernoulli(0.05)
        if hit:
            assert stream.randint(0, 16) == scalar.randint(0, 16)
    coin.flush()
    assert stream.get_state() == scalar.get_state()


def test_batched_coin_state_restores_into_fresh_coin():
    stream = RandomStream(11, "coin")
    coin = BatchedBernoulli(stream, 0.05)
    for _ in range(10):
        coin.draw()
    coin.flush()
    state = stream.get_state()
    expected = [coin.draw() for _ in range(50)]
    stream.set_state(state)
    fresh = BatchedBernoulli(stream, 0.05)
    assert [fresh.draw() for _ in range(50)] == expected


def test_packet_state_round_trip():
    packet = Packet(
        packet_id=9,
        source=1,
        destination=5,
        created_at=123,
        route=(2, 0, 1),
        size=3,
        hop=1,
        injected_at=140,
    )
    clone = Packet.from_state(json.loads(json.dumps(packet.to_state())))
    assert clone == packet
    assert isinstance(clone.route, tuple)


def test_packet_factory_counter_round_trip():
    factory = PacketFactory()
    factory.create(source=0, destination=1)
    factory.create(source=0, destination=2)
    clone = PacketFactory()
    clone.restore_state(factory.snapshot_state())
    assert clone.create(source=1, destination=0).packet_id == 2


# ---------------------------------------------------------------------------
# Whole-simulator snapshots
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["FIFO", "SAMQ", "SAFC", "DAMQ"])
def test_snapshot_restore_is_bit_exact(kind):
    cfg = config(buffer_kind=kind)
    reference = OmegaNetworkSimulator(cfg)
    reference.run(warmup_cycles=100, measure_cycles=150)

    simulator = OmegaNetworkSimulator(cfg)
    for _ in range(73):  # mid warm-up, so the resumed run opens the window
        simulator.step()
    state = json.loads(json.dumps(simulator.snapshot()))
    resumed = restore_simulator(state)
    resumed.run(warmup_cycles=100, measure_cycles=150)
    assert meters_state(resumed) == meters_state(reference)


def test_snapshot_does_not_perturb_the_run():
    cfg = config(buffer_kind="DAMQ")
    reference = OmegaNetworkSimulator(cfg)
    reference.run(warmup_cycles=100, measure_cycles=150)

    observed = OmegaNetworkSimulator(cfg)
    for _ in range(60):
        observed.step()
        observed.snapshot()  # every cycle of early warm-up
    observed.run(warmup_cycles=100, measure_cycles=150)
    assert meters_state(observed) == meters_state(reference)


def test_snapshot_round_trips_variable_length_in_flight_state():
    cfg = config(
        buffer_kind="DAMQ",
        packet_size=1,
        packet_size_max=3,
        serialize_links=True,
        protocol=Protocol.BLOCKING,
    )
    reference = OmegaNetworkSimulator(cfg)
    reference.run(warmup_cycles=100, measure_cycles=150)

    simulator = OmegaNetworkSimulator(cfg)
    for _ in range(73):
        simulator.step()
    assert simulator.in_flight_count > 0  # snapshot covers live transfers
    state = json.loads(json.dumps(simulator.snapshot()))
    resumed = restore_simulator(state)
    assert resumed.in_flight_count == simulator.in_flight_count
    resumed.run(warmup_cycles=100, measure_cycles=150)
    assert meters_state(resumed) == meters_state(reference)


def test_restore_rejects_wrong_version():
    simulator = OmegaNetworkSimulator(config())
    state = simulator.snapshot()
    state["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(ConfigurationError):
        simulator.restore(state)


def test_restore_rejects_mismatched_config():
    state = OmegaNetworkSimulator(config(offered_load=0.7)).snapshot()
    other = OmegaNetworkSimulator(config(offered_load=0.8))
    with pytest.raises(ConfigurationError):
        other.restore(state)


def test_network_config_state_round_trip():
    cfg = config(protocol=Protocol.DISCARDING, buffer_kind="SAMQ")
    assert NetworkConfig.from_state(cfg.to_state()) == cfg


def test_network_config_from_state_names_an_unknown_field():
    # A config dict from an older snapshot can carry a field this version
    # no longer has; rebuilding it must fail loudly, naming the field.
    state = config().to_state()
    state["discard_at_injection"] = False
    with pytest.raises(ConfigurationError, match="discard_at_injection"):
        NetworkConfig.from_state(state)


# ---------------------------------------------------------------------------
# Checkpoint files
# ---------------------------------------------------------------------------


def test_checkpointed_run_and_resume_match_uninterrupted(tmp_path):
    cfg = config(buffer_kind="DAMQ")
    reference = simulate(cfg, warmup_cycles=50, measure_cycles=150)

    path = tmp_path / "run.ckpt"
    result = simulate(
        cfg,
        warmup_cycles=50,
        measure_cycles=150,
        checkpoint_every=60,
        checkpoint_path=path,
    )
    assert result.meters.snapshot_state() == reference.meters.snapshot_state()
    # The file holds the last mid-run checkpoint; resuming from it must
    # land on the identical result.
    document = load_checkpoint(path)
    assert document["state"]["cycle"] == 180
    resumed = resume_run(path)
    assert resumed.meters.snapshot_state() == reference.meters.snapshot_state()


def test_load_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text(json.dumps({"format": 999}))
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_run_validates_checkpoint_cadence():
    simulator = OmegaNetworkSimulator(config())
    with pytest.raises(ConfigurationError):
        simulator.run(
            warmup_cycles=10,
            measure_cycles=10,
            checkpoint_every=0,
            checkpoint_path="unused.ckpt",
        )


def test_run_rejects_a_simulator_past_the_window():
    simulator = OmegaNetworkSimulator(config())
    for _ in range(30):
        simulator.step()
    with pytest.raises(ConfigurationError):
        simulator.run(warmup_cycles=10, measure_cycles=10)
