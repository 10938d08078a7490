"""Integration tests asserting the paper's qualitative claims.

These run the real 64-port Omega network (shortened measurement windows)
and the exact Markov analysis, and check the *shape* results of the
evaluation section: orderings, ratios and saturation behaviour.  Absolute
numbers are asserted only loosely, since the windows are short.
"""

import pytest

from repro.markov import discard_probability
from repro.network import NetworkConfig, simulate
from repro.network.saturation import SATURATION_LOAD, latency_throughput_curves
from repro.switch.flow_control import Protocol

WARMUP = 300
MEASURE = 1200

BASE = NetworkConfig(
    slots_per_buffer=4,
    protocol=Protocol.BLOCKING,
    arbiter_kind="smart",
    traffic_kind="uniform",
    seed=2024,
)


def saturation_throughputs(configs):
    """Saturation throughput of each named config, as one simulation grid."""
    curves = latency_throughput_curves(
        list(configs.values()), [SATURATION_LOAD], WARMUP, MEASURE
    )
    return {
        name: point.delivered_throughput
        for name, (point,) in zip(configs, curves)
    }


@pytest.fixture(scope="module")
def saturation():
    """Saturation throughputs of all four architectures (computed once)."""
    return saturation_throughputs(
        {
            kind: BASE.with_overrides(buffer_kind=kind)
            for kind in ("FIFO", "SAMQ", "SAFC", "DAMQ")
        }
    )


class TestTable4Claims:
    def test_damq_saturation_at_least_30_percent_above_fifo(self, saturation):
        """Paper: 40% higher maximum throughput for DAMQ over FIFO."""
        ratio = saturation["DAMQ"] / saturation["FIFO"]
        assert ratio > 1.30

    def test_saturation_ordering_matches_paper(self, saturation):
        """FIFO < SAMQ, SAFC < DAMQ (Table 4's ordering)."""
        fifo = saturation["FIFO"]
        samq = saturation["SAMQ"]
        safc = saturation["SAFC"]
        damq = saturation["DAMQ"]
        assert fifo < samq + 0.02  # FIFO lowest (small tolerance)
        assert samq <= safc + 0.02  # full connection helps a little
        assert damq == max(fifo, samq, safc, damq)

    def test_fifo_saturates_near_half_capacity(self, saturation):
        """Paper: FIFO with 4 slots saturates at ~0.51."""
        assert 0.42 < saturation["FIFO"] < 0.60

    def test_below_saturation_latencies_nearly_equal(self):
        """Paper: at <=0.40 the buffer type is not a significant factor."""
        latencies = {
            kind: simulate(
                BASE.with_overrides(buffer_kind=kind, offered_load=0.25),
                WARMUP,
                MEASURE,
            ).average_latency
            for kind in ("FIFO", "DAMQ", "SAMQ", "SAFC")
        }
        spread = max(latencies.values()) - min(latencies.values())
        assert spread < 8.0, latencies  # within a few cycles of each other

    def test_unloaded_latency_close_to_paper_baseline(self):
        """~41.5 cycles at 0.25 load (3 hops x 12 + frame alignment)."""
        latency = simulate(
            BASE.with_overrides(buffer_kind="DAMQ", offered_load=0.25),
            WARMUP,
            MEASURE,
        ).average_latency
        # Our frame-alignment accounting sits a few cycles above the
        # paper's 41.5 (see DESIGN.md section 5); the claim here is that
        # unloaded latency is ~3 hops x 12 cycles plus small queueing.
        assert 38.0 < latency < 54.0

    def test_fifo_latency_blows_up_at_half_load(self):
        """At 0.50, FIFO is saturated while DAMQ is comfortable."""
        fifo = simulate(
            BASE.with_overrides(buffer_kind="FIFO", offered_load=0.50),
            WARMUP,
            MEASURE,
        ).average_latency
        damq = simulate(
            BASE.with_overrides(buffer_kind="DAMQ", offered_load=0.50),
            WARMUP,
            MEASURE,
        ).average_latency
        assert fifo > damq * 1.25


class TestTable5Claims:
    def test_damq_3_slots_beats_fifo_8_slots(self):
        """Paper: control beats capacity — DAMQ-3 saturates above FIFO-8."""
        pair = saturation_throughputs(
            {
                "damq3": BASE.with_overrides(
                    buffer_kind="DAMQ", slots_per_buffer=3
                ),
                "fifo8": BASE.with_overrides(
                    buffer_kind="FIFO", slots_per_buffer=8
                ),
            }
        )
        assert pair["damq3"] > pair["fifo8"]

    def test_extra_damq_slots_move_saturation_little(self):
        """Paper: DAMQ's saturation barely moves from 3 to 8 slots."""
        pair = saturation_throughputs(
            {
                slots: BASE.with_overrides(
                    buffer_kind="DAMQ", slots_per_buffer=slots
                )
                for slots in (3, 8)
            }
        )
        damq3, damq8 = pair[3], pair[8]
        # The paper reports 0.63 -> 0.74 for 3 -> 8 slots; our model's gap
        # is slightly larger but the claim (diminishing returns vs the
        # FIFO->DAMQ architectural jump) holds.
        assert damq8 - damq3 < 0.20
        assert damq8 >= damq3 - 0.03


class TestTable6Claims:
    @pytest.fixture(scope="class")
    def hot_saturation(self):
        hot = BASE.with_overrides(traffic_kind="hotspot", hot_fraction=0.05)
        return saturation_throughputs(
            {
                kind: hot.with_overrides(buffer_kind=kind)
                for kind in ("FIFO", "SAMQ", "SAFC", "DAMQ")
            }
        )

    def test_all_architectures_tree_saturate_together(self, hot_saturation):
        """Paper: every buffer type saturates just under 0.25."""
        throughputs = list(hot_saturation.values())
        assert max(throughputs) - min(throughputs) < 0.04
        for value in throughputs:
            assert 0.15 < value < 0.30

    def test_hotspot_saturation_far_below_uniform(self, hot_saturation, saturation):
        for kind in ("FIFO", "DAMQ"):
            assert hot_saturation[kind] < saturation[kind] - 0.15


class TestTable3Claims:
    def test_damq_discards_least(self):
        discard = {}
        for kind in ("FIFO", "SAMQ", "SAFC", "DAMQ"):
            discard[kind] = simulate(
                BASE.with_overrides(
                    buffer_kind=kind,
                    protocol=Protocol.DISCARDING,
                    offered_load=0.5,
                ),
                WARMUP,
                MEASURE,
            ).discard_percent
        assert discard["DAMQ"] == min(discard.values())
        assert discard["DAMQ"] < discard["FIFO"] / 3

    def test_dumb_and_smart_discard_similarly(self):
        results = {}
        for arbiter in ("smart", "dumb"):
            results[arbiter] = simulate(
                BASE.with_overrides(
                    buffer_kind="FIFO",
                    protocol=Protocol.DISCARDING,
                    offered_load=0.5,
                    arbiter_kind=arbiter,
                ),
                WARMUP,
                MEASURE,
            ).discard_percent
        assert abs(results["smart"] - results["dumb"]) < 2.0


class TestTable2Claims:
    """Quantitative checks against published Table 2 cells."""

    def test_fifo_converges_to_hol_limit_at_99(self):
        """Paper: 0.242 for every FIFO size at 99% traffic."""
        for slots in (3, 4):
            assert discard_probability("FIFO", slots, 0.99) == pytest.approx(
                0.242, abs=0.01
            )

    def test_damq_matches_published_row(self):
        """DAMQ with 2 slots: 0.022 / 0.070 / 0.119 at 75/90/99%."""
        assert discard_probability("DAMQ", 2, 0.75) == pytest.approx(0.022, abs=0.004)
        assert discard_probability("DAMQ", 2, 0.90) == pytest.approx(0.070, abs=0.006)
        assert discard_probability("DAMQ", 2, 0.99) == pytest.approx(0.119, abs=0.008)

    def test_damq_3_slots_no_worse_than_fifo_6(self):
        """Paper's headline for Table 2."""
        for rate in (0.75, 0.85, 0.95, 0.99):
            assert discard_probability("DAMQ", 3, rate) <= discard_probability(
                "FIFO", 6, rate
            ) + 1e-9

    def test_fifo_beats_static_buffers_at_low_load_two_slots(self):
        """Paper: at light traffic FIFO-2 discards less than SAMQ/SAFC-2."""
        fifo = discard_probability("FIFO", 2, 0.25)
        assert fifo < discard_probability("SAMQ", 2, 0.25)
        assert fifo < discard_probability("SAFC", 2, 0.25)

    def test_high_load_ordering_damq_best(self):
        """At 95%, 4 slots: DAMQ < SAFC <= SAMQ < FIFO."""
        damq = discard_probability("DAMQ", 4, 0.95)
        safc = discard_probability("SAFC", 4, 0.95)
        samq = discard_probability("SAMQ", 4, 0.95)
        fifo = discard_probability("FIFO", 4, 0.95)
        assert damq < safc <= samq < fifo

    def test_samq_and_safc_close_below_80(self):
        """Paper: full connection adds little until traffic is heavy."""
        for rate in (0.5, 0.75, 0.8):
            samq = discard_probability("SAMQ", 4, rate)
            safc = discard_probability("SAFC", 4, rate)
            assert abs(samq - safc) < 0.01
