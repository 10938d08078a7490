"""Tests anchoring the exact chains to published queueing theory."""

import pytest

from repro.markov.analysis import analyze_switch
from repro.markov.theory import HOL_SATURATION


class TestConstants:
    def test_table_values(self):
        assert HOL_SATURATION[2] == 0.75  # repro: noqa=REP004 closed-form value is exactly representable
        assert HOL_SATURATION[4] == pytest.approx(0.6553)

    def test_monotone_decreasing(self):
        values = [HOL_SATURATION[n] for n in sorted(HOL_SATURATION)]
        assert values == sorted(values, reverse=True)


class TestChainsMatchTheory:
    def test_fifo_throughput_pinned_at_hol_limit(self):
        """A saturated FIFO input switch transmits at exactly Karol's
        0.75 for a 2x2 switch, independent of buffer depth (extra depth
        only changes what is discarded, not what the heads can move)."""
        for slots in (2, 4, 6):
            state = analyze_switch("FIFO", slots, traffic_rate=1.0)
            assert state.throughput == pytest.approx(0.75, abs=1e-9), slots

    def test_damq_exceeds_hol_limit(self):
        """No head-of-line blocking: DAMQ sails past the FIFO ceiling."""
        throughput = analyze_switch("DAMQ", 6, traffic_rate=1.0).throughput
        assert throughput > HOL_SATURATION[2] + 0.05

    def test_safc_also_exceeds_hol_limit(self):
        throughput = analyze_switch("SAFC", 6, traffic_rate=1.0).throughput
        assert throughput > HOL_SATURATION[2]

    def test_fifo_discard_at_saturation_follows_limit(self):
        """discard ≈ 1 - (HOL limit / arrival rate) at full load."""
        state = analyze_switch("FIFO", 6, traffic_rate=0.99)
        expected = 1.0 - 0.75 / 0.99
        assert state.discard_probability == pytest.approx(expected, abs=0.01)
