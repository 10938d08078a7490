"""Model checking the architecture zoo, including the starvation spec.

The committed fixture ``tests/fixtures/cex-starvation-damq.json`` is the
machine-checked witness of the claim the reserved-slot DAMQ exists to
fix: four same-output arrivals fill plain DAMQ's shared pool and the
other output is refused while empty.  The tests here re-verify the
violation from scratch *and* replay the committed trace.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.counterexample import Counterexample
from repro.analysis.model import (
    verify_buffer,
    verify_starvation,
    verify_switch,
)

FIXTURE = (
    Path(__file__).parent.parent / "fixtures" / "cex-starvation-damq.json"
)

ARCH_KINDS = ("DAMQ-RSV", "CQ")


class TestArchConformance:
    @pytest.mark.parametrize("kind", ARCH_KINDS)
    def test_buffer_verifies_clean(self, kind):
        result = verify_buffer(kind, 4, 2)
        assert result.violation is None
        assert result.stats.states > 0

    @pytest.mark.parametrize("kind", ARCH_KINDS)
    def test_switch_verifies_clean(self, kind):
        result = verify_switch(kind, 2, 4)
        assert result.violation is None


class TestStarvation:
    @pytest.mark.parametrize("kind", ("DAMQ-RSV", "SAMQ", "SAFC", "CQ"))
    def test_partitioned_and_reserved_kinds_never_starve(self, kind):
        result = verify_starvation(kind, 4, 2)
        assert result.violation is None

    def test_reserved_damq_passes_at_larger_parameters(self):
        result = verify_starvation("DAMQ-RSV", 8, 4)
        assert result.violation is None

    @pytest.mark.parametrize("kind", ("DAMQ", "FIFO"))
    def test_shared_kinds_provably_starve(self, kind):
        result = verify_starvation(kind, 4, 2)
        assert result.violation is not None
        assert result.violation.prop == "starvation"
        assert result.counterexample is not None

    def test_damq_counterexample_is_the_minimal_hot_burst(self):
        result = verify_starvation("DAMQ", 4, 2)
        # Four same-output arrivals monopolize the whole shared pool.
        assert result.counterexample.actions == [("arrive", 0)] * 4


class TestCommittedFixture:
    def test_fixture_replays_to_starvation(self):
        counterexample = Counterexample.from_dict(
            json.loads(FIXTURE.read_text())
        )
        assert counterexample.config["kind"] == "DAMQ"
        violation = counterexample.replay()
        assert violation is not None
        assert violation.prop == "starvation"
        assert violation.message == counterexample.violation.message

    def test_fixture_matches_a_fresh_search(self):
        counterexample = Counterexample.from_dict(
            json.loads(FIXTURE.read_text())
        )
        fresh = verify_starvation(
            "DAMQ",
            counterexample.config["capacity"],
            counterexample.config["num_outputs"],
        ).counterexample
        assert fresh.actions == counterexample.actions
        assert fresh.violation.message == counterexample.violation.message

    def test_fixture_exports_waveforms(self, tmp_path):
        counterexample = Counterexample.from_dict(
            json.loads(FIXTURE.read_text())
        )
        written = counterexample.export(tmp_path, "starvation")
        digests = {
            name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in written.items()
        }
        assert digests == {
            "vcd": "c1d3975557f70c61dfc932f22317518c"
            "b6178ed1c88c54c3ae84fa7b309f17d0",
            "chrome": "b3db9a72b2f249d0253c39335bf1f653"
            "71b1c17556547ebc07ca65fdd6fa0e41",
        }


class TestCommandLine:
    def test_arch_sweep_with_starvation_flag(self, capsys):
        code = main(
            [
                "model",
                "--buffer",
                "arch",
                "--ports",
                "2",
                "--slots",
                "4",
                "--starvation",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "starvation[DAMQ-RSV]: ok" in output
        assert "starvation[CQ]: ok" in output

    def test_damq_starvation_violation_exits_nonzero(self, capsys):
        code = main(
            [
                "model",
                "--buffer",
                "DAMQ",
                "--ports",
                "2",
                "--slots",
                "4",
                "--system",
                "buffer",
                "--starvation",
                "--skip-refinements",
            ]
        )
        output = capsys.readouterr().out
        assert code == 1
        assert "VIOLATION" in output and "starvation" in output
