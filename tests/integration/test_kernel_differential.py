"""Integration tests for the per-cycle kernel differential harness.

Three claims are exercised end to end:

* the seed-1988 quick-grid configurations (the paper's figure 3 and
  table 3 operating points) are byte-identical between the reference
  and numpy backends at every compared cycle;
* a planted divergence is caught at the exact cycle it occurs, with a
  counterexample that replays through the model checker's standard
  machinery (``build_system`` / ``Counterexample.replay``) and
  round-trips through JSON serialization;
* the CLI smoke grid (``python -m repro.kernel diff --ci``) passes.

Shortened windows keep the suite fast; the CI ``kernel-equivalence``
job runs the same grid at full quick fidelity.
"""

import pytest

from repro.analysis.counterexample import Counterexample
from repro.kernel.differential import (
    DIVERGENCE_PROP,
    DiffReport,
    diff_kernels,
    first_difference,
)
from repro.network.simulator import NetworkConfig
from repro.switch.flow_control import Protocol

WARMUP, MEASURE = 100, 200


def quick_config(kind, protocol, arbiter, load, seed=1988):
    """A paper-grid operating point (64 ports, radix 4, 4 slots)."""
    return NetworkConfig(
        buffer_kind=kind,
        slots_per_buffer=4,
        protocol=protocol,
        arbiter_kind=arbiter,
        traffic_kind="uniform",
        offered_load=load,
        seed=seed,
    )


class TestSeed1988Pins:
    @pytest.mark.parametrize(
        "kind, protocol, arbiter, load",
        [
            # Figure 3 operating points (blocking, smart arbitration).
            ("FIFO", Protocol.BLOCKING, "smart", 0.5),
            ("DAMQ", Protocol.BLOCKING, "smart", 0.7),
            # Table 3 operating points (discarding protocol).
            ("SAMQ", Protocol.DISCARDING, "smart", 0.5),
            ("SAFC", Protocol.DISCARDING, "dumb", 0.5),
        ],
    )
    def test_quick_grid_configs_are_equivalent(
        self, kind, protocol, arbiter, load
    ):
        report = diff_kernels(
            quick_config(kind, protocol, arbiter, load),
            warmup_cycles=WARMUP,
            measure_cycles=MEASURE,
        )
        assert report.ok, report.describe()
        assert report.cycles_compared == WARMUP + MEASURE
        # The end-of-run results must agree too, and be pinned.
        assert (
            report.result_digests["reference"]
            == report.result_digests["numpy"]
        )

    def test_compare_every_still_checks_final_cycle(self):
        report = diff_kernels(
            quick_config("DAMQ", Protocol.BLOCKING, "smart", 0.5),
            warmup_cycles=50,
            measure_cycles=73,
            compare_every=32,
        )
        assert report.ok
        # ceil(123/32) boundary comparisons plus the forced final one.
        assert report.cycles_compared == 4


class PlantedBug:
    """Context manager corrupting the numpy kernel at one cycle."""

    def __init__(self, at_cycle: int):
        self.at_cycle = at_cycle

    def __enter__(self):
        from repro.kernel.numpy_kernel import NumpyKernel

        bug_cycle = self.at_cycle
        self._original = NumpyKernel.step

        def corrupted(kernel):
            self._original(kernel)
            if kernel.cycle == bug_cycle:
                kernel.sink_recv[0] += 1  # phantom delivery

        NumpyKernel.step = corrupted
        return self

    def __exit__(self, *exc):
        from repro.kernel.numpy_kernel import NumpyKernel

        NumpyKernel.step = self._original
        return False


class TestPlantedDivergence:
    CONFIG_ARGS = ("DAMQ", Protocol.BLOCKING, "smart", 0.7)
    BUG_CYCLE = 60

    def diverged_report(self) -> DiffReport:
        with PlantedBug(self.BUG_CYCLE):
            return diff_kernels(
                quick_config(*self.CONFIG_ARGS),
                warmup_cycles=50,
                measure_cycles=100,
            )

    def test_divergence_detected_at_exact_cycle(self):
        report = self.diverged_report()
        assert not report.ok
        assert report.divergence_cycle == self.BUG_CYCLE
        assert report.divergence_path is not None
        assert "received" in report.divergence_path
        assert report.reference_digest != report.numpy_digest
        assert "DIVERGED" in report.describe()

    def test_counterexample_replays_and_roundtrips(self):
        report = self.diverged_report()
        counterexample = report.counterexample
        assert counterexample is not None
        assert counterexample.violation.prop == DIVERGENCE_PROP
        assert len(counterexample.actions) == self.BUG_CYCLE

        # JSON round trip through the standard serializer.
        restored = Counterexample.from_dict(counterexample.to_dict())
        assert restored.actions == counterexample.actions
        assert restored.violation.prop == DIVERGENCE_PROP

        # With the bug still planted the trace reproduces the violation
        # through build_system's "kernel-diff" registration ...
        with PlantedBug(self.BUG_CYCLE):
            violation = restored.replay()
        assert violation is not None and violation.prop == DIVERGENCE_PROP

        # ... and with the bug removed the same trace runs clean.
        assert restored.replay() is None

    def test_render_script_mentions_kernel_diff(self):
        report = self.diverged_report()
        script = report.counterexample.render_script()
        assert "kernel-diff" in script


class TestFirstDifference:
    def test_identical_structures(self):
        assert first_difference({"a": [1, 2]}, {"a": [1, 2]}) is None

    def test_nested_path(self):
        left = {"switches": {"s0": {"queue": [1, 2, 3]}}}
        right = {"switches": {"s0": {"queue": [1, 9, 3]}}}
        assert first_difference(left, right) == "/switches/s0/queue[1]"

    def test_missing_key_and_length_mismatch(self):
        assert first_difference({"a": 1}, {}) == "/a"
        assert first_difference([1, 2], [1]) == "/len(2!=1)"


class TestCliSmoke:
    def test_diff_ci_grid_passes(self, capsys):
        from repro.kernel.__main__ import CI_GRID, main

        code = main(
            [
                "diff",
                "--ci",
                "--warmup",
                "40",
                "--measure",
                "80",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("equivalent over 120 cycles") == len(CI_GRID)

    def test_every_ci_grid_row_has_its_own_label(self):
        from repro.kernel.__main__ import CI_GRID, ci_configs

        labels = [
            DiffReport(config, cycles_compared=0).describe()
            for config in ci_configs(1988)
        ]
        assert len(set(labels)) == len(CI_GRID)
