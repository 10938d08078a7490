"""Tests for the parallel experiment engine."""

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
