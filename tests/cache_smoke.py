#!/usr/bin/env python
"""CI smoke check for the result cache and checkpoint/resume.

Three end-to-end properties, checked on a real experiment:

1. **Warm cache**: running the same experiment twice against one cache
   performs *zero* simulations the second time and prints a
   byte-identical report.
2. **Kill/resume**: an experiment killed at a mid-simulation checkpoint
   (via the ``REPRO_TEST_EXIT_AT_CHECKPOINT`` hook, which ``os._exit``\\ s
   the process the moment a checkpoint hits that cycle) and then re-run
   resumes from the checkpoint file and prints a report byte-identical
   to an uninterrupted run.
3. **Pooled kill/resume**: the same run under ``--jobs 2`` kills each
   supervised worker at that checkpoint; the pool retries the task, the
   replacement resumes from the file, and the one invocation exits 0,
   prints the reference report and leaves no checkpoint behind.

Usage::

    PYTHONPATH=src python tests/cache_smoke.py [experiment]

Runs ``figure3`` at quick fidelity by default; exits non-zero with a
diagnostic on the first violated property.  No pytest dependency — this
is a plain script so the CI job (and a curious developer) can run it
directly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Checkpoint cadence and kill cycle for the quick windows (200 warmup +
#: 900 measure): cycle 500 is the second checkpoint, mid-simulation.
CHECKPOINT_EVERY = 250
KILL_AT_CYCLE = 500


def fail(message: str) -> None:
    print(f"cache-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def cli_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(extra)
    return env


def run_cli(arguments: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *arguments],
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
        cwd=REPO_ROOT,
    )


def report_of(stdout: str) -> str:
    """The experiment report with the (run-dependent) timing line removed."""
    kept = [
        line
        for line in stdout.splitlines()
        if not (line.startswith("(") and line.endswith("s)"))
    ]
    return "\n".join(kept)


def check_warm_cache(experiment: str, scratch: Path) -> None:
    from repro.cache.store import ResultCache
    from repro.experiments.runner import run_experiment
    from repro.perf.parallel import reset_simulated_cycles, simulated_cycles

    cache = ResultCache(scratch / "cache")
    cold = run_experiment(experiment, quick=True, cache=cache)
    reset_simulated_cycles()
    warm = run_experiment(experiment, quick=True, cache=cache)
    if simulated_cycles() != 0:
        fail(
            f"warm re-run of {experiment} simulated "
            f"{simulated_cycles()} cycles; expected 0 (all cache hits)"
        )
    if cold.render() != warm.render():
        fail(f"warm re-run of {experiment} printed a different report")
    print(f"cache-smoke: warm {experiment} re-run: 0 simulations, "
          "byte-identical report")


def checkpointed_arguments(experiment: str, cache_dir: Path) -> list[str]:
    return [
        experiment,
        "--quick",
        "--cache",
        "--cache-dir",
        str(cache_dir),
        "--checkpoint-every",
        str(CHECKPOINT_EVERY),
    ]


def check_kill_resume(experiment: str, scratch: Path, reference: str) -> None:
    cache_dir = scratch / "resume-cache"
    arguments = checkpointed_arguments(experiment, cache_dir)

    killed = run_cli(
        arguments,
        cli_env(REPRO_TEST_EXIT_AT_CHECKPOINT=str(KILL_AT_CYCLE)),
    )
    if killed.returncode != 23:
        fail(
            f"killed run exited {killed.returncode}; expected the "
            f"checkpoint-exit code 23\n{killed.stderr}"
        )
    checkpoints = list((cache_dir / "checkpoints").glob("*.ckpt"))
    if not checkpoints:
        fail("killed run left no checkpoint file to resume from")

    resumed = run_cli(arguments, cli_env())
    if resumed.returncode != 0:
        fail(f"resumed run failed:\n{resumed.stderr}")
    if report_of(resumed.stdout) != reference:
        fail(
            f"resumed {experiment} report differs from the "
            "uninterrupted run"
        )
    print(f"cache-smoke: {experiment} killed at cycle {KILL_AT_CYCLE}, "
          "resumed byte-identically")


def check_pooled_kill_resume(
    experiment: str, scratch: Path, reference: str
) -> None:
    cache_dir = scratch / "pooled-cache"
    pooled = run_cli(
        [*checkpointed_arguments(experiment, cache_dir), "--jobs", "2"],
        cli_env(REPRO_TEST_EXIT_AT_CHECKPOINT=str(KILL_AT_CYCLE)),
    )
    if pooled.returncode != 0:
        fail(
            f"--jobs 2 run with workers killed at cycle {KILL_AT_CYCLE} "
            f"exited {pooled.returncode}; expected 0\n{pooled.stderr}"
        )
    if report_of(pooled.stdout) != reference:
        fail(f"--jobs 2 {experiment} report differs from the reference run")
    leftovers = list(cache_dir.glob("**/*.ckpt"))
    if leftovers:
        fail(f"--jobs 2 run left checkpoint files behind: {leftovers}")
    print(f"cache-smoke: --jobs 2 {experiment} workers killed at cycle "
          f"{KILL_AT_CYCLE}, recovered byte-identically in one run")


def main(argv: list[str]) -> int:
    experiment = argv[1] if len(argv) > 1 else "figure3"
    with tempfile.TemporaryDirectory(prefix="repro-cache-smoke-") as tmp:
        scratch = Path(tmp)
        check_warm_cache(experiment, scratch)
        reference = run_cli([experiment, "--quick"], cli_env())
        if reference.returncode != 0:
            fail(f"reference run failed:\n{reference.stderr}")
        expected = report_of(reference.stdout)
        check_kill_resume(experiment, scratch, expected)
        check_pooled_kill_resume(experiment, scratch, expected)
    print("cache-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
