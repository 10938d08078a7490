"""Bit-level determinism pins for the simulator's hot path.

These two checksums were recorded from the reference implementation (seed
1988, the paper's publication year) and must never drift: every metric —
including the *float accumulation state* of the latency statistics, which
is sensitive to switch iteration order and RNG draw order — is pinned
exactly.  Any hot-path "optimization" that reorders arbitration, buffer
operations, or random draws will trip this test even when the aggregate
curves still look plausible.

If this test fails, the change is NOT a safe refactor.  Do not update the
pinned values unless the simulation semantics were changed on purpose (and
EXPERIMENTS.md regenerated to match).
"""

import json

import pytest

from repro.analysis.sanitizer import HardwareSanitizer
from repro.instrument import ObservedOmegaNetworkSimulator
from repro.network.simulator import (
    NetworkConfig,
    OmegaNetworkSimulator,
    make_simulator,
    restore_simulator,
)
from repro.switch.flow_control import Protocol
from repro.telemetry import TraceSession

#: Simulation window shared by both pins (cycles).
WARMUP, MEASURE = 200, 800

PINNED = {
    "blocking_damq": {
        "config": dict(
            num_ports=16,
            radix=4,
            buffer_kind="DAMQ",
            slots_per_buffer=4,
            protocol=Protocol.BLOCKING,
            offered_load=0.6,
            seed=1988,
        ),
        "expected": {
            "generated": 7761,
            "injected": 7761,
            "delivered": 7725,
            "discarded": 0,
            "latency_count": 7725,
            "latency_mean": 56.314951456310666,
            "latency_m2": 6149042.723106821,
            "latency_min": 25,
            "latency_max": 286,
            "net_latency_mean": 49.68388349514563,
            "occupancy_mean": 40.21124999999998,
            "occupancy_max": 59,
        },
    },
    "discarding_fifo": {
        "config": dict(
            num_ports=16,
            radix=4,
            buffer_kind="FIFO",
            slots_per_buffer=4,
            protocol=Protocol.DISCARDING,
            offered_load=0.6,
            seed=1988,
        ),
        "expected": {
            "generated": 7668,
            "injected": 7664,
            "delivered": 7228,
            "discarded": 369,
            "latency_count": 7228,
            "latency_mean": 89.73049252905406,
            "latency_m2": 15290220.99944661,
            "latency_min": 25,
            "latency_max": 291,
            "net_latency_mean": 76.5390149418926,
            "occupancy_mean": 60.254999999999995,
            "occupancy_max": 83,
        },
    },
}


def checksum(meters) -> dict:
    """Every counter plus the raw Welford state of the latency stats."""
    return {
        "generated": meters.generated,
        "injected": meters.injected,
        "delivered": meters.delivered,
        "discarded": meters.discarded,
        "latency_count": meters.latency.count,
        "latency_mean": meters.latency.mean,
        "latency_m2": meters.latency._m2,
        "latency_min": meters.latency.minimum,
        "latency_max": meters.latency.maximum,
        "net_latency_mean": meters.network_latency.mean,
        "occupancy_mean": meters.occupancy.mean,
        "occupancy_max": meters.occupancy.maximum,
    }


@pytest.mark.parametrize("name", sorted(PINNED))
def test_seed_1988_checksums_unchanged(name):
    pin = PINNED[name]
    simulator = OmegaNetworkSimulator(NetworkConfig(**pin["config"]))
    simulator.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    actual = checksum(simulator.meters)
    # Exact comparison on purpose — floats included (see module docstring).
    assert actual == pin["expected"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pins_survive_architecture_zoo_registration(name):
    """Importing ``repro.arch`` must not perturb the paper datapath.

    The zoo registers extra buffer and scheduler kinds as an import side
    effect; nothing about that registration may touch the paper
    configurations' RNG draw order, switch iteration order, or buffer
    semantics.  Re-running a pinned config with the zoo loaded proves
    the extension is purely additive, bit for bit.
    """
    import repro.arch  # noqa: F401  (the import side effect is the test)

    pin = PINNED[name]
    simulator = OmegaNetworkSimulator(NetworkConfig(**pin["config"]))
    simulator.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(simulator.meters) == pin["expected"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sanitized_run_matches_pins_exactly(name, monkeypatch):
    """REPRO_SANITIZE=1 must not perturb a single bit of the results.

    The sanitizer observes the buffers via ``__class__`` adoption —
    bookkeeping only, no change to the datapath — so the exact Welford
    state of every meter must match the plain-run pins, and a healthy
    model must produce zero violations.
    """
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    pin = PINNED[name]
    simulator = make_simulator(NetworkConfig(**pin["config"]))
    sanitizer = simulator.observer(HardwareSanitizer)
    assert sanitizer is not None
    simulator.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(simulator.meters) == pin["expected"]
    assert sanitizer.clean, sanitizer.render()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_snapshot_restore_round_trip_matches_pins_exactly(name):
    """A mid-run snapshot → JSON → restore → continue must hit the pins.

    The snapshot is taken at an arbitrary cycle inside warm-up, pushed
    through an actual JSON round trip (what a checkpoint file does), and
    restored into a freshly built simulator.  The finished run must
    reproduce every pinned value bit for bit — including the int-typed
    latency minimum, which a careless float coercion in restore would
    silently widen.
    """
    pin = PINNED[name]
    simulator = OmegaNetworkSimulator(NetworkConfig(**pin["config"]))
    for _ in range(137):
        simulator.step()
    state = json.loads(json.dumps(simulator.snapshot()))
    resumed = restore_simulator(state)
    resumed.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(resumed.meters) == pin["expected"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trace_off_by_default_builds_the_plain_class(name, monkeypatch):
    """With no telemetry env set, make_simulator must stay zero-overhead.

    Not ``isinstance`` — the *exact* plain class, proving no adopted
    subclass and no instrumentation object sits anywhere near the hot
    path when tracing is off (the disabled default that keeps the seed
    1988 pins byte-identical by construction).
    """
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    pin = PINNED[name]
    simulator = make_simulator(NetworkConfig(**pin["config"]))
    assert type(simulator) is OmegaNetworkSimulator


def assert_telemetry_reconciles(simulator):
    """The traced counters agree exactly with the datapath's accounting."""
    metrics = simulator.observer(TraceSession).metrics
    assert metrics.value("packets_delivered_measured") == simulator.meters.delivered
    assert metrics.value("packets_delivered_total") == sum(
        sink.received for row in simulator._exit_sinks for sink in row
    )
    assert metrics.value("packets_discarded_measured") == simulator.meters.discarded
    assert metrics.value("packets_discarded_total") >= simulator.meters.discarded
    enqueued = metrics.value("buffer_enqueues_total")
    dequeued = metrics.value("buffer_dequeues_total")
    assert enqueued - dequeued == simulator.total_buffered_packets
    assert metrics.value("arbiter_grants_total") == dequeued


@pytest.mark.parametrize("name", sorted(PINNED))
def test_traced_run_matches_pins_exactly(name, monkeypatch):
    """REPRO_TRACE=1 must not perturb a single bit of the results.

    Tracing observes the datapath's own side effects (it draws nothing
    from any RNG), so the exact Welford state of every meter must match
    the plain-run pins — and the per-buffer enqueue/dequeue counters
    must reconcile with what the network actually moved.
    """
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    pin = PINNED[name]
    simulator = make_simulator(NetworkConfig(**pin["config"]))
    simulator.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(simulator.meters) == pin["expected"]
    assert_telemetry_reconciles(simulator)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sanitized_traced_run_matches_pins_exactly(name, monkeypatch):
    """Both rails on one run: pins, a clean report and exact counters.

    The sanitizer and the tracer observe the same components side by
    side, so the run must still be bit-identical to a plain one while
    each rail reports exactly what it would alone.
    """
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    pin = PINNED[name]
    simulator = make_simulator(NetworkConfig(**pin["config"]))
    assert type(simulator) is ObservedOmegaNetworkSimulator
    assert [type(o) for o in simulator.observers] == [
        HardwareSanitizer,
        TraceSession,
    ]
    simulator.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(simulator.meters) == pin["expected"]
    sanitizer = simulator.observer(HardwareSanitizer)
    assert sanitizer.clean, sanitizer.render()
    assert_telemetry_reconciles(simulator)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_metrics_only_run_matches_pins_exactly(name, monkeypatch):
    """REPRO_METRICS=1 (counters, no event ring) must also hit the pins."""
    monkeypatch.setenv("REPRO_METRICS", "1")
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    pin = PINNED[name]
    simulator = make_simulator(NetworkConfig(**pin["config"]))
    session = simulator.observer(TraceSession)
    assert session.ring.capacity == 0
    simulator.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(simulator.meters) == pin["expected"]
    assert len(session.ring) == 0  # nothing retained...
    assert session.metrics.value("buffer_enqueues_total") > 0


@pytest.mark.parametrize("name", sorted(PINNED))
def test_traced_snapshot_restore_matches_pins_exactly(name, monkeypatch):
    """Snapshot under tracing, restore traced, hit the pins.

    The traced snapshot carries an extra "telemetry" key with the exact
    metrics state; restoring it must leave the continued run — and the
    restored counters themselves — bit-identical to an uninterrupted
    traced run.
    """
    monkeypatch.setenv("REPRO_TRACE", "1")
    pin = PINNED[name]
    simulator = make_simulator(NetworkConfig(**pin["config"]))
    for _ in range(137):
        simulator.step()
    state = json.loads(json.dumps(simulator.snapshot()))
    resumed = make_simulator(NetworkConfig(**pin["config"]))
    resumed.restore(state)
    resumed.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(resumed.meters) == pin["expected"]
    uninterrupted = make_simulator(NetworkConfig(**pin["config"]))
    uninterrupted.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert (
        resumed.observer(TraceSession).metrics.snapshot_state()
        == uninterrupted.observer(TraceSession).metrics.snapshot_state()
    )


@pytest.mark.parametrize("name", sorted(PINNED))
def test_traced_snapshot_restores_into_plain_simulator(name, monkeypatch):
    """A traced checkpoint must remain readable by a plain simulator."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    pin = PINNED[name]
    simulator = make_simulator(NetworkConfig(**pin["config"]))
    for _ in range(137):
        simulator.step()
    state = json.loads(json.dumps(simulator.snapshot()))
    monkeypatch.delenv("REPRO_TRACE")
    resumed = make_simulator(NetworkConfig(**pin["config"]))
    assert type(resumed) is OmegaNetworkSimulator
    resumed.restore(state)
    resumed.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(resumed.meters) == pin["expected"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_sanitized_snapshot_restore_matches_pins_exactly(name, monkeypatch):
    """Snapshot under REPRO_SANITIZE=1, restore sanitized, hit the pins.

    Snapshots are sanitizer-agnostic: one taken by an instrumented
    simulator restores into another instrumented simulator (whose slot
    lifecycle state is re-derived from the restored register files) and
    the continued run must match the plain-run pins exactly, with zero
    violations reported.
    """
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    pin = PINNED[name]
    simulator = make_simulator(NetworkConfig(**pin["config"]))
    for _ in range(137):
        simulator.step()
    state = json.loads(json.dumps(simulator.snapshot()))
    resumed = make_simulator(NetworkConfig(**pin["config"]))
    sanitizer = resumed.observer(HardwareSanitizer)
    assert sanitizer is not None
    resumed.restore(state)
    resumed.run(warmup_cycles=WARMUP, measure_cycles=MEASURE)
    assert checksum(resumed.meters) == pin["expected"]
    assert sanitizer.clean, sanitizer.render()
