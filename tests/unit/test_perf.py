"""Tests for the parallel experiment engine and the perf harness."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, WorkerFailedError
from repro.network.simulator import NetworkConfig
from repro.perf import (
    parallel_map,
    parallel_simulate,
    reset_simulated_cycles,
    resolve_jobs,
    simulated_cycles,
)
from repro.perf.harness import (
    BENCH_SCHEMA,
    compare_to_baseline,
    load_bench,
    measure_experiment,
    write_bench,
)
from repro.service.backoff import TASK_RETRY

#: A small grid of independent configs (different loads and seeds).
GRID = [
    NetworkConfig(
        num_ports=16, radix=4, offered_load=load, seed=seed
    )
    for load, seed in [(0.3, 1), (0.6, 2), (0.9, 3)]
]


def fingerprint(result) -> tuple:
    """Exact per-run signature used to compare serial vs parallel rows."""
    meters = result.meters
    return (
        meters.generated,
        meters.injected,
        meters.delivered,
        meters.discarded,
        meters.latency.count,
        meters.latency.mean,
        meters.latency._m2,
    )


def _crash(_item):  # pragma: no cover - runs in the worker process
    os._exit(13)  # simulate a segfault/OOM kill: no exception, no result


def _die_once(item):  # pragma: no cover - runs in the worker process
    """First attempt hard-exits; the retry sees the marker and works."""
    marker, value = item
    path = Path(marker)
    if not path.exists():
        path.write_text("died")
        os._exit(13)
    return value * 2


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_jobs(-2)


class TestParallelSimulate:
    def test_parallel_rows_identical_to_serial(self):
        serial = parallel_simulate(GRID, 100, 400, jobs=1)
        parallel = parallel_simulate(GRID, 100, 400, jobs=4)
        assert [fingerprint(r) for r in serial] == [
            fingerprint(r) for r in parallel
        ]

    def test_cycle_accounting(self):
        reset_simulated_cycles()
        parallel_simulate(GRID, 100, 400, jobs=1)
        assert simulated_cycles() == (100 + 400) * len(GRID)
        reset_simulated_cycles()
        assert simulated_cycles() == 0


class TestParallelMap:
    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            parallel_map(_div_by_zero, [1, 2], jobs=2)

    def test_crashed_worker_reported_cleanly(self):
        with pytest.raises(WorkerFailedError) as info:
            parallel_map(_crash, [1, 2], jobs=2)
        assert info.value.attempts == TASK_RETRY.max_attempts

    def test_dead_worker_retried_without_checkpointing(self, tmp_path):
        # No cache context, no checkpoint: the task reruns from scratch.
        items = [(str(tmp_path / "a"), 1), (str(tmp_path / "b"), 2)]
        assert parallel_map(_die_once, items, jobs=2) == [2, 4]

    def test_import_leaves_the_service_unloaded(self):
        probe = (
            "import sys, repro.perf.parallel; "
            "print(any(m.startswith('repro.service') for m in sys.modules))"
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


def _div_by_zero(item):  # pragma: no cover - runs in the worker process
    return item / 0


class TestHarness:
    def test_measure_experiment_record_shape(self, monkeypatch):
        # Register a tiny simulation-backed experiment so the test does
        # not pay for a real table's grid.
        from repro.experiments import runner

        def dummy(quick=False, seed=1988, jobs=1):
            parallel_simulate(GRID[:1], 50, 150, jobs=jobs)

        monkeypatch.setitem(runner.EXPERIMENTS, "dummy-sim", dummy)
        record = measure_experiment("dummy-sim", quick=True, jobs=1)
        assert set(record) == {"wall_s", "cycles_per_s", "jobs"}
        assert record["wall_s"] > 0
        # 200 simulated cycles over the measured wall time.
        assert record["cycles_per_s"] > 0
        assert record["jobs"] == 1

    def test_bench_roundtrip_and_schema_check(self, tmp_path):
        document = {
            "schema": BENCH_SCHEMA,
            "mode": "quick",
            "jobs": 1,
            "experiments": {"x": {"wall_s": 1.0, "cycles_per_s": 5.0, "jobs": 1}},
        }
        path = write_bench(document, tmp_path / "BENCH_test.json")
        assert load_bench(path) == document
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ConfigurationError):
            load_bench(bad)

    def test_compare_to_baseline(self):
        baseline = {
            "schema": BENCH_SCHEMA,
            "mode": "quick",
            "experiments": {
                "a": {"wall_s": 1.0, "cycles_per_s": 10.0, "jobs": 1},
                "b": {"wall_s": 2.0, "cycles_per_s": 10.0, "jobs": 1},
            },
        }
        current = {
            "schema": BENCH_SCHEMA,
            "mode": "quick",
            "experiments": {
                "a": {"wall_s": 1.2, "cycles_per_s": 9.0, "jobs": 1},
                "b": {"wall_s": 9.0, "cycles_per_s": 2.0, "jobs": 1},
                # Only-in-current experiments are skipped, not errors.
                "c": {"wall_s": 50.0, "cycles_per_s": 1.0, "jobs": 1},
            },
        }
        failures = compare_to_baseline(current, baseline, max_regression=3.0)
        assert len(failures) == 1 and "b:" in failures[0]
        assert compare_to_baseline(current, baseline, max_regression=10.0) == []

    def test_compare_rejects_mode_mismatch(self):
        quick = {"schema": BENCH_SCHEMA, "mode": "quick", "experiments": {}}
        full = {"schema": BENCH_SCHEMA, "mode": "full", "experiments": {}}
        assert "mode mismatch" in compare_to_baseline(quick, full)[0]

    def test_compare_rejects_backend_mismatch(self):
        numpy_doc = {
            "schema": BENCH_SCHEMA,
            "mode": "quick",
            "backend": "numpy",
            "experiments": {},
        }
        reference = {
            "schema": BENCH_SCHEMA,
            "mode": "quick",
            "backend": "reference",
            "experiments": {},
        }
        failures = compare_to_baseline(numpy_doc, reference)
        assert failures and "backend mismatch" in failures[0]

    def test_schema_v1_baseline_reads_as_reference_backend(self, tmp_path):
        # Pre-backend benchmark files (schema 1, no backend field) must
        # stay loadable and compare cleanly against a reference run.
        v1 = {
            "schema": 1,
            "mode": "quick",
            "experiments": {"a": {"wall_s": 1.0, "cycles_per_s": 10.0, "jobs": 1}},
        }
        path = tmp_path / "BENCH_v1.json"
        path.write_text(json.dumps(v1))
        baseline = load_bench(path)
        current = {
            "schema": BENCH_SCHEMA,
            "mode": "quick",
            "backend": "reference",
            "experiments": {"a": {"wall_s": 1.1, "cycles_per_s": 9.0, "jobs": 1}},
        }
        assert compare_to_baseline(current, baseline, max_regression=3.0) == []

    def test_invalid_max_regression_rejected(self):
        quick = {"schema": BENCH_SCHEMA, "mode": "quick", "experiments": {}}
        with pytest.raises(ConfigurationError):
            compare_to_baseline(quick, quick, max_regression=0)
