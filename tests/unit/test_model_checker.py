"""Unit tests for the bounded model checker (:mod:`repro.analysis.model`).

Exhaustive exploration is cheap at these parameters (tens to hundreds of
states), so the tests run the real checker end to end: every buffer kind
verifies cleanly, the refinement and dominance properties hold, planted
bugs are detected with replayable minimal counterexamples, and the
explored state graph's stationary distribution matches the analytic
:mod:`repro.markov` chain.
"""

import json
import subprocess
import sys

import pytest

from repro.analysis.__main__ import main, verify_main
from repro.analysis.counterexample import Counterexample
from repro.analysis.model import (
    MUTATIONS,
    BufferSystem,
    DominanceSystem,
    FifoRefinementSystem,
    StarvationSystem,
    SwitchSystem,
    build_system,
    cross_validate,
    run_self_test,
    verify_buffer,
    verify_dominance,
    verify_fifo_refinement,
    verify_starvation,
    verify_switch,
)
from repro.core.registry import PAPER_ORDER
from repro.errors import ConfigurationError
from repro.kernel.differential import KernelDiffSystem
from repro.network.simulator import NetworkConfig
from repro.telemetry import read_vcd, validate_chrome_trace


def mutation(name):
    for candidate in MUTATIONS:
        if candidate.name == name:
            return candidate
    raise LookupError(name)


class TestBufferVerification:
    @pytest.mark.parametrize("kind", PAPER_ORDER)
    def test_all_kinds_verify_clean(self, kind):
        # Capacity 4: SAMQ/SAFC need the partition to divide the slots.
        result = verify_buffer(kind, 4, 2)
        assert result.ok, result.describe()
        assert result.stats.states > 1
        assert not result.stats.truncated
        assert result.counterexample is None

    def test_exact_layout_explores_more_damq_states(self):
        exact = verify_buffer("DAMQ", 3, 2, exact_layout=True)
        collapsed = verify_buffer("DAMQ", 3, 2, exact_layout=False)
        assert exact.ok and collapsed.ok
        assert exact.stats.states > collapsed.stats.states

    def test_state_budget_sets_truncated_flag(self):
        result = verify_buffer("FIFO", 4, 2, max_states=5)
        assert result.ok
        assert result.stats.truncated
        assert result.stats.states <= 5

    def test_unknown_kind_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            verify_buffer("VOQ", 4, 2)


class TestSwitchVerification:
    @pytest.mark.parametrize("kind", PAPER_ORDER)
    def test_small_switch_verifies_clean(self, kind):
        result = verify_switch(kind, 2, 2)
        assert result.ok, result.describe()
        assert result.stats.states > 1
        assert not result.stats.truncated


class TestRefinementAndDominance:
    def test_single_queue_damq_refines_fifo(self):
        result = verify_fifo_refinement(4, 2)
        assert result.ok, result.describe()

    @pytest.mark.parametrize("kind", ["SAMQ", "SAFC"])
    def test_partitioned_acceptance_dominated_by_damq(self, kind):
        result = verify_dominance(kind, 4, 2)
        assert result.ok, result.describe()
        # Strict witnesses: states where DAMQ accepts what the
        # partitioned buffer refuses — the paper's headline advantage.
        assert result.strict_witnesses > 0

    def test_dominance_rejects_damq_argument(self):
        with pytest.raises(ConfigurationError):
            verify_dominance("DAMQ", 4, 2)


#: (states, transitions) of the 2-port, 4-slot sweeps.  Any refactor of
#: the transition systems must leave the explored graphs unchanged.
BUFFER_PINS = {
    "FIFO": (56, 129),
    "SAMQ": (22, 61),
    "SAFC": (22, 61),
    "DAMQ": (684, 2116),
    "DAMQ-RSV": (552, 1728),
    "CQ": (22, 61),
}
SWITCH_PINS = {
    "FIFO": (961, 28478),
    "SAMQ": (81, 3240),
    "SAFC": (81, 3888),
    "DAMQ": (225, 9000),
    "DAMQ-RSV": (169, 7022),
    "CQ": (81, 3888),
}
STARVATION_PINS = {"DAMQ-RSV": (13, 36), "CQ": (9, 24)}


def explored(result):
    assert result.ok, result.describe()
    assert not result.stats.truncated
    return result.stats.states, result.stats.transitions


class TestStateSpacePins:
    @pytest.mark.parametrize("kind", sorted(BUFFER_PINS))
    def test_buffer_sweep(self, kind):
        assert explored(verify_buffer(kind, 4, 2)) == BUFFER_PINS[kind]

    @pytest.mark.parametrize("kind", sorted(SWITCH_PINS))
    def test_switch_sweep(self, kind):
        assert explored(verify_switch(kind, 2, 4)) == SWITCH_PINS[kind]

    def test_fifo_refinement(self):
        assert explored(verify_fifo_refinement(4, 2)) == (20, 32)

    @pytest.mark.parametrize("kind", ["SAMQ", "SAFC"])
    def test_dominance_and_strict_witnesses(self, kind):
        result = verify_dominance(kind, 4, 2)
        assert explored(result) == (216, 576)
        assert result.strict_witnesses == 96

    @pytest.mark.parametrize("kind", sorted(STARVATION_PINS))
    def test_starvation(self, kind):
        result = verify_starvation(kind, 4, 2)
        assert explored(result) == STARVATION_PINS[kind]


#: One instance of every transition system, knobs off their defaults
#: where a system has them.
SYSTEMS = [
    BufferSystem("damq", 4, 2),
    BufferSystem("DAMQ", 3, 2, exact_layout=False),
    StarvationSystem("DAMQ-RSV", 4, 2),
    SwitchSystem("SAFC", 2, 2),
    SwitchSystem("FIFO", 2, 2, mode="markov"),
    FifoRefinementSystem(4, 2),
    DominanceSystem("samq", 4, 2),
    KernelDiffSystem(NetworkConfig(num_ports=16).to_state(), 10),
]


def system_id(system):
    values = system.config().values()
    return "-".join(str(v) for v in values if not isinstance(v, dict))


class TestBuildSystem:
    @pytest.mark.parametrize("system", SYSTEMS, ids=system_id)
    def test_config_round_trips(self, system):
        config = system.config()
        assert json.loads(json.dumps(config)) == config
        assert build_system(config).config() == config

    @pytest.mark.parametrize("system", SYSTEMS, ids=system_id)
    def test_unknown_field_is_rejected(self, system):
        config = {**system.config(), "protocol": "blocking"}
        with pytest.raises(ConfigurationError, match="protocol"):
            build_system(config)

    @pytest.mark.parametrize("system", SYSTEMS, ids=system_id)
    def test_missing_field_is_rejected(self, system):
        config = system.config()
        field = sorted(set(config) - {"system"})[-1]
        del config[field]
        with pytest.raises(ConfigurationError, match=field):
            build_system(config)

    def test_unknown_system_is_rejected(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            build_system({"system": "bogus"})


class TestSelfTest:
    def test_every_planted_bug_detected(self):
        results = run_self_test()
        assert len(results) == len(MUTATIONS)
        for result in results:
            assert result.detected, result.describe()
            assert result.violation is not None
            assert result.trace_length > 0


class TestCounterexamples:
    @pytest.fixture(scope="class")
    def planted(self):
        """A counterexample found under the fifo-reorder mutation."""
        bug = mutation("fifo-reorder")
        with bug.patch():
            result = bug.check()
        assert result.violation is not None
        assert result.counterexample is not None
        return bug, result

    def test_replay_reproduces_under_mutation(self, planted):
        bug, result = planted
        with bug.patch():
            violation = result.counterexample.replay()
        assert violation is not None
        assert violation.prop == result.violation.prop

    def test_replay_is_clean_without_mutation(self, planted):
        _bug, result = planted
        assert result.counterexample.replay() is None

    def test_json_round_trip(self, planted):
        _bug, result = planted
        payload = json.loads(json.dumps(result.counterexample.to_dict()))
        restored = Counterexample.from_dict(payload)
        assert restored.actions == result.counterexample.actions
        assert restored.config == result.counterexample.config
        assert restored.violation == result.counterexample.violation

    def test_from_dict_rejects_unknown_version(self):
        with pytest.raises(ConfigurationError):
            Counterexample.from_dict({"version": 99, "config": {},
                                      "actions": []})

    def test_render_script_replays_standalone(self, planted, tmp_path):
        bug, result = planted
        script = tmp_path / "replay.py"
        script.write_text(result.counterexample.render_script())
        # Without the mutation the violation must NOT reproduce: exit 1.
        run = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True
        )
        assert run.returncode == 1
        assert "did NOT reproduce" in run.stdout

    def test_waveform_export(self, planted, tmp_path):
        _bug, result = planted
        paths = result.counterexample.export(tmp_path, "cex")
        vcd = read_vcd(paths["vcd"])
        assert vcd["signals"]
        chrome = validate_chrome_trace(paths["chrome"])
        assert chrome["metadata"]


class TestMarkovCrossValidation:
    @pytest.mark.parametrize("kind", PAPER_ORDER)
    def test_stationary_distribution_matches_markov(self, kind):
        validation = cross_validate(kind, 2, 0.6)
        assert validation.ok, validation.describe()
        assert validation.max_error < 1e-9
        assert validation.explored_states > 1

    def test_rate_must_be_open_interval(self):
        with pytest.raises(ConfigurationError):
            cross_validate("FIFO", 2, 1.0)


class TestCommandLine:
    def test_verify_main_smoke(self, capsys):
        code = verify_main(
            ["--buffer", "FIFO", "--slots", "2", "--system", "buffer",
             "--skip-refinements"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "buffer[FIFO]: ok" in out

    def test_model_subcommand_with_cross_validation(self, capsys):
        code = main(
            ["model", "--buffer", "DAMQ", "--slots", "2", "--system",
             "buffer", "--skip-refinements", "--cross-validate"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "markov[DAMQ]" in out

    def test_unknown_buffer_exits_two(self, capsys):
        assert main(["model", "--buffer", "VOQ", "--slots", "2"]) == 2
        assert "aborted" in capsys.readouterr().out
