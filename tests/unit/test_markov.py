"""Unit tests for the Markov analysis: chain solver, port models,
arbitration enumeration and the switch chains."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigurationError
from repro.markov.arbitration import service_outcomes
from repro.markov.chain import MarkovChain
from repro.markov.models import SwitchChainBuilder
from repro.markov.ports import (
    DamqPortModel,
    FifoPortModel,
    SafcPortModel,
    SamqPortModel,
    port_model,
)


class TestMarkovChain:
    def test_two_state_chain_steady_state(self):
        # P(0->1)=0.3, P(1->0)=0.6: pi = (2/3, 1/3)
        matrix = sp.csr_matrix(np.array([[0.7, 0.3], [0.6, 0.4]]))
        pi = MarkovChain(matrix).steady_state()
        assert pi == pytest.approx([2 / 3, 1 / 3])

    def test_identity_chain(self):
        """A reducible chain still yields a stationary distribution."""
        pi = MarkovChain(sp.identity(3, format="csr")).steady_state()
        assert pi.sum() == pytest.approx(1.0)
        assert np.all(pi >= 0)

    def test_non_stochastic_rejected(self):
        matrix = sp.csr_matrix(np.array([[0.5, 0.3], [0.6, 0.4]]))
        with pytest.raises(ConfigurationError):
            MarkovChain(matrix)

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            MarkovChain(sp.csr_matrix(np.ones((2, 3)) / 3))

    def test_arpack_solve_is_deterministic(self):
        """Chains above 64 states go through ARPACK; a fixed start
        vector makes repeated solves bitwise equal."""
        builder = SwitchChainBuilder("DAMQ", 4)
        first = builder.chain(0.95).steady_state()
        second = builder.chain(0.95).steady_state()
        assert len(first) > 64
        assert first.tobytes() == second.tobytes()

    def test_expected_value(self):
        matrix = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        chain = MarkovChain(matrix)
        assert chain.expected(np.array([2.0, 4.0])) == pytest.approx(3.0)

    def test_expected_wrong_shape(self):
        chain = MarkovChain(sp.identity(2, format="csr"))
        with pytest.raises(ConfigurationError):
            chain.expected(np.zeros(3))


class TestFifoPortModel:
    def test_state_count(self):
        # sum_{k=0..B} 2^k = 2^{B+1} - 1
        model = FifoPortModel(capacity=3)
        assert len(model.enumerate_states()) == 15

    def test_only_head_visible(self):
        model = FifoPortModel(capacity=4)
        state = (1, 0, 1)
        assert model.queue_lengths(state) == (0, 3)

    def test_serve_pops_head(self):
        model = FifoPortModel(capacity=4)
        assert model.serve((1, 0), 1) == (0,)
        with pytest.raises(ConfigurationError):
            model.serve((1, 0), 0)

    def test_accept_appends(self):
        model = FifoPortModel(capacity=2)
        assert model.accept((0,), 1) == (0, 1)
        assert not model.can_accept((0, 1), 0)

    def test_empty_state_first(self):
        assert FifoPortModel(capacity=2).empty_state() == ()


class TestCountingPortModels:
    def test_damq_shares_pool(self):
        model = DamqPortModel(capacity=3)
        assert model.can_accept((2, 0), 1)
        assert not model.can_accept((2, 1), 0)
        assert len(model.enumerate_states()) == 10  # compositions <= 3

    def test_samq_partitions(self):
        model = SamqPortModel(capacity=4)
        assert model.partition == 2
        assert not model.can_accept((2, 0), 0)
        assert model.can_accept((2, 0), 1)
        assert len(model.enumerate_states()) == 9

    def test_samq_odd_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            SamqPortModel(capacity=3)

    def test_safc_serves_per_output(self):
        assert SafcPortModel(capacity=4).max_serves_per_cycle == 2
        assert SamqPortModel(capacity=4).max_serves_per_cycle == 1

    def test_serve_decrements(self):
        model = DamqPortModel(capacity=4)
        assert model.serve((2, 1), 0) == (1, 1)
        with pytest.raises(ConfigurationError):
            model.serve((0, 1), 0)

    def test_port_model_factory(self):
        assert port_model("fifo", 2).kind == "FIFO"
        assert port_model("DAMQ", 2).kind == "DAMQ"
        with pytest.raises(ConfigurationError):
            port_model("nope", 2)


class TestServiceOutcomes:
    def test_empty_switch_serves_nothing(self):
        model = DamqPortModel(capacity=2)
        outcomes = service_outcomes(model, [(0, 0), (0, 0)])
        assert outcomes == [(Fraction(1), ())]

    def test_two_packets_sent_when_possible(self):
        model = DamqPortModel(capacity=2)
        outcomes = service_outcomes(model, [(1, 0), (0, 1)])
        assert len(outcomes) == 1
        _, served = outcomes[0]
        assert set(served) == {(0, 0), (1, 1)}

    def test_symmetric_tie_split_evenly(self):
        """Both inputs head for output 0 only: 50/50 split."""
        model = DamqPortModel(capacity=2)
        outcomes = service_outcomes(model, [(1, 0), (1, 0)])
        assert len(outcomes) == 2
        assert all(weight == Fraction(1, 2) for weight, _ in outcomes)

    def test_longest_queue_preferred_on_conflict(self):
        model = DamqPortModel(capacity=4)
        outcomes = service_outcomes(model, [(3, 0), (1, 0)])
        assert outcomes == [(Fraction(1), ((0, 0),))]

    def test_two_beats_one_even_if_shorter_queues(self):
        """'Send two if at all possible' outranks queue length."""
        model = DamqPortModel(capacity=4)
        # Input 0 has a long queue for output 0; input 1 can only serve 0.
        # Sending two means input 0 takes output 1 (its short queue).
        outcomes = service_outcomes(model, [(3, 1), (1, 0)])
        assert len(outcomes) == 1
        _, served = outcomes[0]
        assert set(served) == {(0, 1), (1, 0)}

    def test_safc_input_serves_both_outputs(self):
        model = SafcPortModel(capacity=4)
        outcomes = service_outcomes(model, [(1, 1), (0, 0)])
        assert len(outcomes) == 1
        _, served = outcomes[0]
        assert set(served) == {(0, 0), (0, 1)}

    def test_samq_input_cannot_serve_both(self):
        model = SamqPortModel(capacity=4)
        outcomes = service_outcomes(model, [(1, 1), (0, 0)])
        for _weight, served in outcomes:
            assert len(served) == 1

    def test_fifo_head_conflict(self):
        model = FifoPortModel(capacity=2)
        outcomes = service_outcomes(model, [(0, 0), (0,)])
        # Both heads target output 0; queue lengths 2 vs 1 -> input 0 wins.
        assert outcomes == [(Fraction(1), ((0, 0),))]

    def test_probabilities_sum_to_one(self):
        model = DamqPortModel(capacity=3)
        for states in ([(2, 1), (1, 1)], [(0, 3), (3, 0)], [(1, 0), (0, 0)]):
            outcomes = service_outcomes(model, states)
            assert sum(weight for weight, _ in outcomes) == 1


class TestSwitchChainBuilder:
    def test_rows_are_stochastic_for_every_rate(self):
        builder = SwitchChainBuilder("DAMQ", slots_per_port=2)
        for rate in (0.0, 0.3, 1.0):
            chain = builder.chain(rate)  # validates row sums internally
            assert chain.num_states == len(builder.states)

    def test_zero_traffic_never_discards(self):
        builder = SwitchChainBuilder("FIFO", slots_per_port=2)
        assert builder.analyze(0.0).discard_probability == 0.0  # repro: noqa=REP004 zero arrivals give an exactly zero discard rate

    def test_flow_conservation(self):
        """Accepted arrivals equal departures in steady state."""
        for kind in ("FIFO", "DAMQ", "SAMQ", "SAFC"):
            builder = SwitchChainBuilder(kind, slots_per_port=2)
            state = builder.analyze(0.8)
            accepted = 0.8 * (1 - state.discard_probability)
            assert state.throughput == pytest.approx(accepted, abs=1e-9), kind

    def test_discard_increases_with_traffic(self):
        builder = SwitchChainBuilder("FIFO", slots_per_port=3)
        probabilities = [
            builder.analyze(rate).discard_probability
            for rate in (0.25, 0.5, 0.75, 0.95)
        ]
        assert probabilities == sorted(probabilities)

    def test_discard_decreases_with_slots(self):
        values = [
            SwitchChainBuilder("DAMQ", slots).analyze(0.9).discard_probability
            for slots in (2, 3, 4)
        ]
        assert values[0] > values[1] > values[2]

    def test_invalid_traffic_rate(self):
        builder = SwitchChainBuilder("DAMQ", 2)
        with pytest.raises(ConfigurationError):
            builder.analyze(1.2)

    def test_mean_occupancy_positive_under_load(self):
        state = SwitchChainBuilder("FIFO", 2).analyze(0.9)
        assert 0 < state.mean_occupancy <= 4
