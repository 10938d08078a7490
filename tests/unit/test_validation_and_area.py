"""Unit tests for the extension modules: exact Markov cross-validation
and the slot-size area model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.markov.arbitration as arbitration
import repro.markov.models as models
from repro.chip.area import (
    estimate_slot_size,
    slot_size_sweep,
    uniform_length_distribution,
)
from repro.errors import ConfigurationError, SimulationError
from repro.experiments import ext_validation


class TestExactValidation:
    def test_quick_grid_rows_are_exact(self):
        rows = ext_validation.run(quick=True).data["rows"]
        assert len(rows) == 12
        for row in rows:
            assert row["max_error"] <= 1e-9, row
            assert row["explored"] <= row["modelled"], row
            assert 0.0 < row["discard"] < 1.0, row

    @pytest.fixture
    def first_winner_ties(self, monkeypatch):
        # Every tie goes to the first winner.  A check that shares
        # service_outcomes with the chain cannot see this; the buffer
        # classes explored by cross_validate can.
        original = arbitration.service_outcomes

        def first_winner(model, port_states):
            return [(1, original(model, port_states)[0][1])]

        # models imports the function by name: patch both namespaces.
        monkeypatch.setattr(arbitration, "service_outcomes", first_winner)
        monkeypatch.setattr(models, "service_outcomes", first_winner)

    def test_planted_tie_split_bug_raises(self, first_winner_ties):
        with pytest.raises(SimulationError, match="FIFO-2 at rate 0.75"):
            ext_validation.run(quick=True)

    @pytest.mark.parametrize("kind", ["FIFO", "DAMQ", "SAMQ", "SAFC"])
    def test_planted_tie_split_bug_caught_for_every_kind(
        self, kind, first_winner_ties
    ):
        with pytest.raises(SimulationError, match=f"{kind}-2 at rate 0.95"):
            ext_validation._validate_task((kind, 2, 0.95))

    def test_runner_import_leaves_the_model_checker_unloaded(self):
        probe = (
            "import sys, repro.experiments.runner; "
            "print('repro.analysis.model' in sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestAreaModel:
    def test_uniform_distribution_sums_to_one(self):
        lengths = uniform_length_distribution()
        assert sum(lengths.values()) == pytest.approx(1.0)
        assert set(lengths) == set(range(1, 33))

    def test_register_overhead_decreases_with_slot_size(self):
        estimates = slot_size_sweep((4, 8, 16, 32))
        overheads = [e.register_bits_per_byte for e in estimates]
        assert overheads == sorted(overheads, reverse=True)

    def test_fragmentation_increases_with_slot_size(self):
        estimates = slot_size_sweep((4, 8, 16, 32))
        fragmentation = [e.expected_fragmentation for e in estimates]
        assert fragmentation == sorted(fragmentation)

    def test_32_byte_slot_never_chains(self):
        estimate = estimate_slot_size(32)
        assert estimate.pointer_ops_per_packet == pytest.approx(1.0)

    def test_fixed_length_distribution(self):
        # All packets exactly 4 bytes: an 8-byte slot wastes half.
        estimate = estimate_slot_size(8, lengths={4: 1.0})
        assert estimate.expected_fragmentation == pytest.approx(0.5)
        assert estimate.pointer_ops_per_packet == pytest.approx(1.0)

    def test_budget_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_slot_size(4, buffer_bytes=16)  # max packet needs 32

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            estimate_slot_size(8, lengths={4: 0.4})

    def test_capacity_matches_slots_over_mean(self):
        estimate = estimate_slot_size(8, lengths={8: 0.5, 16: 0.5})
        # 12 slots, 1.5 slots per packet on average.
        assert estimate.expected_packets_capacity == pytest.approx(8.0)


class TestVariableSizeSources:
    def test_sizes_drawn_within_range(self):
        from repro.network import NetworkConfig
        from repro.network.simulator import OmegaNetworkSimulator

        config = NetworkConfig(
            num_ports=16,
            buffer_kind="DAMQ",
            slots_per_buffer=8,
            offered_load=1.0,
            packet_size=1,
            packet_size_max=3,
            seed=8,
        )
        simulator = OmegaNetworkSimulator(config)
        sizes = set()
        for _ in range(50):
            simulator.step()
        for source in simulator.sources:
            for packet in source.queue:
                sizes.add(packet.size)
        for row in simulator.switches:
            for switch in row:
                for buffer in switch.buffers:
                    for packet in buffer.packets():
                        sizes.add(packet.size)
        assert sizes <= {1, 2, 3}
        assert len(sizes) > 1

    def test_invalid_range_rejected(self):
        from repro.core.packet import PacketFactory
        from repro.errors import ConfigurationError
        from repro.network.sources import Source
        from repro.network.topology import OmegaTopology
        from repro.network.traffic import UniformTraffic
        from repro.utils.rng import RandomStream

        with pytest.raises(ConfigurationError):
            Source(
                port=0,
                offered_load=0.5,
                topology=OmegaTopology(16, 4),
                pattern=UniformTraffic(16),
                factory=PacketFactory(),
                rng=RandomStream(1, "x"),
                packet_size=3,
                packet_size_max=2,
            )
