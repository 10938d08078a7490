"""Kill/resume integration: interrupted runs finish bit-identically.

The simulator exposes a test-only kill switch: when the environment
variable ``REPRO_TEST_EXIT_AT_CHECKPOINT`` names a cycle, ``run`` calls
``os._exit`` immediately after writing the checkpoint at that cycle —
the hardest kind of death (no cleanup, no atexit, mid-experiment).
These tests kill real processes with it and assert the resumed runs
reproduce the uninterrupted results bit for bit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.store import ResultCache
from repro.network.simulator import (
    CHECKPOINT_EXIT_CODE,
    CHECKPOINT_EXIT_ENV,
    NetworkConfig,
    load_checkpoint,
    resume_run,
    simulate,
)
from repro.perf.parallel import (
    parallel_simulate,
    reset_simulated_cycles,
    simulated_cycles,
)
from tests.conftest import run_as_experiment

WARMUP, MEASURE, EVERY, KILL_AT = 100, 300, 50, 200

#: The config the killed child process simulates (kept in lockstep with
#: _CHILD_SCRIPT below).
CHILD_CONFIG = dict(
    num_ports=16,
    radix=4,
    buffer_kind="DAMQ",
    offered_load=0.6,
    seed=42,
)

_CHILD_SCRIPT = """\
import sys
from repro.network.simulator import NetworkConfig, simulate

config = NetworkConfig(
    num_ports=16, radix=4, buffer_kind="DAMQ", offered_load=0.6, seed=42
)
simulate(
    config,
    warmup_cycles=100,
    measure_cycles=300,
    checkpoint_every=50,
    checkpoint_path=sys.argv[1],
)
"""


def run_child(checkpoint: Path, *, sanitize: bool = False) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env[CHECKPOINT_EXIT_ENV] = str(KILL_AT)
    env["REPRO_SANITIZE"] = "1" if sanitize else "0"
    process = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(checkpoint)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return process.returncode


def meters_of(result) -> dict:
    return result.meters.snapshot_state()


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted run every kill/resume variant must reproduce."""
    return simulate(NetworkConfig(**CHILD_CONFIG), WARMUP, MEASURE)


def test_killed_process_resumes_bit_identically(tmp_path, reference):
    checkpoint = tmp_path / "killed.ckpt"
    assert run_child(checkpoint) == CHECKPOINT_EXIT_CODE
    assert load_checkpoint(checkpoint)["state"]["cycle"] == KILL_AT

    resumed = resume_run(checkpoint)
    assert meters_of(resumed) == meters_of(reference)


def test_killed_sanitized_process_resumes_bit_identically(tmp_path, reference):
    checkpoint = tmp_path / "killed-sanitized.ckpt"
    assert run_child(checkpoint, sanitize=True) == CHECKPOINT_EXIT_CODE

    resumed = resume_run(checkpoint, sanitize=True)
    assert meters_of(resumed) == meters_of(reference)


def test_plain_checkpoint_resumes_under_sanitizer(tmp_path, reference):
    """Snapshots are sanitizer-agnostic in both directions."""
    checkpoint = tmp_path / "killed-plain.ckpt"
    assert run_child(checkpoint) == CHECKPOINT_EXIT_CODE

    resumed = resume_run(checkpoint, sanitize=True)
    assert meters_of(resumed) == meters_of(reference)


GRID = [
    NetworkConfig(num_ports=16, radix=4, offered_load=load, seed=seed)
    for load, seed in [(0.4, 1), (0.7, 2)]
]


def test_checkpointed_parallel_run_matches_plain(tmp_path):
    reference = [simulate(config, WARMUP, MEASURE) for config in GRID]
    results = run_as_experiment(
        lambda: parallel_simulate(GRID, WARMUP, MEASURE, backend="reference"),
        "ckpt-test",
        jobs=2,
        checkpoint_every=EVERY,
        checkpoint_dir=tmp_path,
    )
    for got, want in zip(results, reference):
        assert meters_of(got) == meters_of(want)
    # Checkpoints are scratch state; completed tasks remove theirs.
    assert list(tmp_path.glob("*.ckpt")) == []


def test_dead_workers_auto_resume_from_checkpoints(tmp_path, monkeypatch):
    reference = [simulate(config, WARMUP, MEASURE) for config in GRID]
    options = dict(
        jobs=2,
        cache=ResultCache(tmp_path / "cache"),
        checkpoint_every=EVERY,
        checkpoint_dir=tmp_path / "checkpoints",
    )

    def grid():
        # Checkpoint/resume is the reference simulator's; a numpy batch
        # reruns from cycle 0 (test_service's numpy worker-death test).
        return parallel_simulate(GRID, WARMUP, MEASURE, backend="reference")

    # Every worker kills itself at its first KILL_AT checkpoint; its
    # replacement resumes the task from the dead worker's file
    # (which is past KILL_AT, so the resumed run survives the env).
    monkeypatch.setenv(CHECKPOINT_EXIT_ENV, str(KILL_AT))
    reset_simulated_cycles()
    results = run_as_experiment(grid, "kill-test", **options)
    for got, want in zip(results, reference):
        assert meters_of(got) == meters_of(want)

    # The recovered results were cached; a warm pass runs no simulation.
    monkeypatch.delenv(CHECKPOINT_EXIT_ENV)
    reset_simulated_cycles()
    warm = run_as_experiment(grid, "kill-test", **options)
    assert simulated_cycles() == 0
    for got, want in zip(warm, reference):
        assert meters_of(got) == meters_of(want)
