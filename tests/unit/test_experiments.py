"""Unit tests for the experiment harness (fast experiments only; the
simulation-heavy tables are covered by the integration tests and
benchmarks)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import figure1, figure3, table1, table2
from repro.experiments.report import ExperimentResult, sim_cycles
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.utils.tables import TextTable


class TestReport:
    def test_render_contains_tables_and_notes(self):
        result = ExperimentResult(
            experiment_id="x", title="Title", paper_reference="Table 9"
        )
        table = TextTable("T", ["a"])
        table.add_row([1])
        result.tables.append(table)
        result.notes.append("a note")
        rendered = result.render()
        assert "Title" in rendered
        assert "Table 9" in rendered
        assert "a note" in rendered

    def test_sim_cycles_quick_shorter(self):
        quick_warmup, quick_measure = sim_cycles(True)
        full_warmup, full_measure = sim_cycles(False)
        assert quick_warmup < full_warmup
        assert quick_measure < full_measure


class TestRunnerRegistry:
    def test_all_paper_artifacts_registered(self):
        from repro.experiments.runner import PAPER_EXPERIMENTS

        assert set(PAPER_EXPERIMENTS) == {
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "figure1",
            "figure3",
        }

    def test_extensions_registered(self):
        assert {
            "ext-varlen",
            "ext-slotsize",
            "ext-validation",
            "ext-radix",
        } <= set(EXPERIMENTS)

    def test_cold_start_imports_only_the_requested_experiment(self):
        # A simulation process must not pay for scipy, the Markov chains,
        # the chip model or the fault campaigns: importing the runner
        # loads no experiment, and the simulation experiments load none
        # of those packages.
        probe = """
import json, sys
from repro.experiments.runner import EXPERIMENTS
experiments = [
    "repro.experiments." + e.replace("-", "_") for e in EXPERIMENTS
]
eager = [m for m in experiments if m in sys.modules]
import repro.experiments.figure3, repro.experiments.table3
import repro.experiments.table4, repro.experiments.table5
import repro.experiments.table6
heavy = ["scipy", "repro.markov", "repro.chip", "repro.faults", "repro.analysis"]
print(json.dumps({
    "ids": list(EXPERIMENTS),
    "eager": eager,
    "heavy": [m for m in heavy if m in sys.modules],
}))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        loaded = json.loads(out.stdout)
        assert loaded["eager"] == []
        assert loaded["heavy"] == []
        assert loaded["ids"] == [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "figure1",
            "figure3",
            "ext-varlen",
            "ext-slotsize",
            "ext-validation",
            "ext-radix",
            "ext-faults",
            "ext-arch",
        ]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiment("table9")

    def test_run_experiment_dispatches(self):
        result = run_experiment("TABLE1")
        assert result.experiment_id == "table1"


class TestTable1:
    def test_turnaround_is_exactly_four(self):
        result = table1.run()
        assert result.data["turnaround"] == 4

    def test_trace_table_rows_present(self):
        result = table1.run()
        trace_table = result.tables[0]
        actions = " ".join(" ".join(row) for row in trace_table.rows)
        assert "start bit detected" in actions
        assert "routed to output" in actions
        assert "start bit driven" in actions


class TestTable2:
    def test_quick_run_has_all_architectures(self):
        result = table2.run(quick=True)
        kinds = {kind for kind, _slots in result.data["discard"]}
        assert kinds == {"FIFO", "DAMQ", "SAMQ", "SAFC"}

    def test_rows_monotone_in_traffic(self):
        result = table2.run(quick=True)
        for probabilities in result.data["discard"].values():
            assert list(probabilities) == sorted(probabilities)

    def test_zero_plus_formatting_in_table(self):
        result = table2.run(quick=True)
        rendered = result.tables[0].render()
        assert "0+" in rendered


class TestFigure1:
    def test_structural_facts(self):
        result = figure1.run()
        facts = result.data["facts"]
        assert facts["FIFO"]["reads_per_cycle"] == 1
        assert facts["SAFC"]["reads_per_cycle"] == 4
        assert facts["FIFO"]["slots_usable_by_one_destination"] == 4
        assert facts["SAMQ"]["slots_usable_by_one_destination"] == 1
        assert facts["DAMQ"]["slots_usable_by_one_destination"] == 4
        assert facts["SAMQ"]["statically_partitioned"] is True
        assert facts["DAMQ"]["statically_partitioned"] is False

    def test_diagrams_included(self):
        result = figure1.run()
        assert any("crossbar" in note for note in result.notes)


class TestFigure3Plot:
    def test_ascii_plot_renders_marks(self):
        from repro.network.saturation import CurvePoint

        curves = {
            "FIFO": [CurvePoint(0.2, 0.2, 40.0), CurvePoint(0.5, 0.5, 160.0)],
            "DAMQ": [CurvePoint(0.2, 0.2, 40.0), CurvePoint(0.7, 0.7, 100.0)],
        }
        plot = figure3.ascii_plot(curves)
        assert "F" in plot
        assert "D" in plot
        assert "delivered throughput" in plot

    def test_ascii_plot_empty(self):
        assert figure3.ascii_plot({}) == "(no data)"


class TestRunAll:
    """run_all drives every registered experiment through one cache."""

    @staticmethod
    def _stub(name, calls):
        def run(quick=False, seed=1988):
            from repro.cache import runtime

            context = runtime.active()
            assert context is not None, "runner must activate a context"
            calls.append(
                {
                    "name": name,
                    "quick": quick,
                    "seed": seed,
                    "pooled": context.dispatcher is not None,
                    "experiment": context.experiment,
                    "cache": context.cache,
                    "checkpointing": context.checkpointing,
                }
            )
            return ExperimentResult(
                experiment_id=name, title=name, paper_reference="stub"
            )

        return run

    def test_runs_every_experiment_in_order(self, monkeypatch, tmp_path):
        from repro.cache import runtime
        from repro.cache.store import ResultCache
        from repro.experiments import runner

        calls = []
        monkeypatch.setattr(
            runner,
            "EXPERIMENTS",
            {
                "alpha": self._stub("alpha", calls),
                "beta": self._stub("beta", calls),
            },
        )
        cache = ResultCache(tmp_path / "cache")
        results = runner.run_all(
            quick=True,
            seed=7,
            jobs=2,
            cache=cache,
            checkpoint_every=500,
            checkpoint_dir=tmp_path / "checkpoints",
        )
        assert [r.experiment_id for r in results] == ["alpha", "beta"]
        assert [c["experiment"] for c in calls] == ["alpha", "beta"]
        for call in calls:
            assert call["quick"] is True
            assert call["seed"] == 7
            assert call["pooled"]  # jobs=2 gives the run a pool
            assert call["cache"] is cache  # one store shared by the suite
            assert call["checkpointing"] is True
        # The context is torn down between and after experiments.
        assert runtime.active() is None

    def test_defaults_run_without_cache(self, monkeypatch):
        from repro.experiments import runner

        calls = []
        monkeypatch.setattr(
            runner, "EXPERIMENTS", {"solo": self._stub("solo", calls)}
        )
        results = runner.run_all()
        assert len(results) == 1
        assert calls[0]["cache"] is None
        assert calls[0]["checkpointing"] is False
        assert calls[0]["pooled"] is False

    def test_run_experiment_normalizes_case(self, monkeypatch):
        from repro.experiments import runner

        calls = []
        monkeypatch.setattr(
            runner, "EXPERIMENTS", {"mixed": self._stub("mixed", calls)}
        )
        result = runner.run_experiment("MiXeD")
        assert result.experiment_id == "mixed"
        assert calls[0]["experiment"] == "mixed"


def _three_grids(quick=False, seed=1988):
    """A stub network experiment: three grid calls on 16-port networks."""
    from repro.network import NetworkConfig
    from repro.network.saturation import SATURATION_LOAD
    from repro.perf import parallel_simulate
    from repro.utils.tables import format_value

    kinds = ("FIFO", "DAMQ")
    configs = [
        NetworkConfig(num_ports=16, radix=4, buffer_kind=kind, seed=seed)
        for kind in kinds
    ]
    light, heavy, saturated = (
        parallel_simulate(
            [config.with_overrides(offered_load=load) for config in configs],
            100,
            300,
        )
        for load in (0.3, 0.6, SATURATION_LOAD)
    )
    table = TextTable("stub", ["Buffer", "lat @0.3", "lat @0.6", "sat"])
    for kind, low, high, saturation in zip(kinds, light, heavy, saturated):
        table.add_row(
            [
                kind,
                format_value(low.average_latency, 3),
                format_value(high.average_latency, 3),
                format_value(saturation.delivered_throughput, 4),
            ]
        )
    result = ExperimentResult(
        experiment_id="grids", title="grids", paper_reference="stub"
    )
    result.tables.append(table)
    return result


class TestRunLevelPool:
    """A ``jobs > 1`` run opens one pool that serves all its grids."""

    def test_one_pool_serves_every_grid_of_the_run(self, monkeypatch):
        from repro.experiments import runner
        from repro.service.supervisor import SupervisedPool

        starts, maps = [], []
        start, map_ = SupervisedPool.start, SupervisedPool.map

        def counted_start(pool):
            starts.append(pool)
            return start(pool)

        def counted_map(pool, fn, items):
            maps.append(len(items))
            return map_(pool, fn, items)

        monkeypatch.setattr(SupervisedPool, "start", counted_start)
        monkeypatch.setattr(SupervisedPool, "map", counted_map)
        monkeypatch.setattr(runner, "EXPERIMENTS", {"grids": _three_grids})
        serial = runner.run_experiment("grids", backend="reference")
        assert starts == [] and maps == []
        pooled = runner.run_experiment("grids", jobs=2, backend="reference")
        assert len(starts) == 1
        assert maps == [2, 2, 2]  # every grid ran on that one pool
        assert pooled.render() == serial.render()


class TestOneGridPerExperiment:
    """Each network experiment submits its whole grid as one dispatch."""

    @pytest.mark.parametrize(
        "experiment_id",
        [
            "figure3",
            "table3",
            "table4",
            "table5",
            "table6",
            "ext-radix",
            "ext-varlen",
            "ext-arch",
        ],
    )
    def test_one_dispatch(self, monkeypatch, experiment_id):
        from importlib import import_module

        from repro.perf import parallel_simulate

        module = import_module(
            f"repro.experiments.{experiment_id.replace('-', '_')}"
        )
        # A short window keeps each case fast; the dispatch count does
        # not depend on it.  ext-arch fixes its own window, so its grid
        # call is shortened instead.
        if hasattr(module, "sim_cycles"):
            monkeypatch.setattr(module, "sim_cycles", lambda quick: (20, 60))
        else:
            monkeypatch.setattr(
                module,
                "parallel_simulate",
                lambda configs, _warmup, _measure: parallel_simulate(
                    configs, 20, 60
                ),
            )
        dispatches = []

        def counting_serial_map(fn, items):
            dispatches.append(len(items))
            return [fn(item) for item in items]

        run_experiment(
            experiment_id, quick=True, dispatcher=counting_serial_map
        )
        assert len(dispatches) == 1, dispatches
