#!/usr/bin/env python
"""CI smoke check for the fault-tolerant simulation service.

End-to-end, against a real ``python -m repro.service serve`` process:

1. **Chaos-run byte identity**: ``figure3`` (quick) submitted to a
   service whose chaos mode kills every task's first worker attempt
   mid-simulation must complete — via supervised retries — with a
   report byte-identical to a plain serial ``run_experiment`` in this
   process.  On the default backend each task is a fused numpy batch,
   which has no checkpoint: a killed batch reruns from cycle 0.
2. **Dedup**: submitting the same spec a second time is a cache hit:
   zero simulation tasks execute and the payload is byte-identical.
3. **Supervision evidence**: the server's stats must show the injected
   worker deaths (restarts and retries actually happened — the identity
   in (1) was recovered, not lucky), and the job document must say its
   simulations ran on numpy, so the retried tasks were numpy batches.
4. **Clean shutdown**: on SIGTERM the server exits 0 within
   :data:`SHUTDOWN_WAIT` seconds, and none of its worker processes
   outlive it.

Usage::

    PYTHONPATH=src python tests/service_smoke.py [experiment]

No pytest dependency — a plain script the CI job (and a curious
developer) can run directly.  The worker-process check reads
``/proc`` (Linux).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.runner import run_experiment  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402


#: Seconds a SIGTERM'd server gets to close its pool and exit.
SHUTDOWN_WAIT = 30.0


def fail(message: str) -> None:
    print(f"service-smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def start_server(scratch: Path) -> tuple[subprocess.Popen, str]:
    """Launch the real CLI server with chaos kills; return (proc, url).

    ``--chaos-kill 1.0`` kills every task's first (and second) worker
    attempt partway into the simulation; the default injection bound of
    2 plus the 4-attempt retry budget guarantees completion.
    """
    port_file = scratch / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--port",
            "0",
            "--port-file",
            str(port_file),
            "--workers",
            "2",
            "--checkpoint-every",
            "250",
            "--data-dir",
            str(scratch / "data"),
            "--chaos-kill",
            "1.0",
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            port = int(port_file.read_text().strip())
            return process, f"http://127.0.0.1:{port}"
        if process.poll() is not None:
            fail(
                "server exited before binding: "
                f"{process.stderr.read() if process.stderr else ''}"
            )
        time.sleep(0.1)
    process.kill()
    fail("server never wrote its port file")
    raise AssertionError  # unreachable; keeps the type checker honest


def child_pids(pid: int) -> list[int]:
    """Live processes whose parent is ``pid`` (read from ``/proc``)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        state, parent = stat.rpartition(")")[2].split()[:2]
        if int(parent) == pid and state != "Z":
            children.append(int(entry.name))
    return children


def alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def stop_server(process: subprocess.Popen) -> str | None:
    """SIGTERM the server; return what was not clean about its exit.

    ``None`` means it exited 0 within :data:`SHUTDOWN_WAIT` seconds and
    every worker process it had when signalled is gone too.
    """
    workers = child_pids(process.pid)
    process.send_signal(signal.SIGTERM)
    try:
        code = process.wait(timeout=SHUTDOWN_WAIT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        return f"server still running {SHUTDOWN_WAIT:.0f}s after SIGTERM"
    survivors = [pid for pid in workers if alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    if code != 0:
        return f"server exited {code} on SIGTERM"
    if survivors:
        return f"worker processes {survivors} outlived the server"
    return None


def main() -> None:
    experiment = sys.argv[1] if len(sys.argv) > 1 else "figure3"

    print(f"service-smoke: serial baseline run of {experiment} (quick)")
    serial = run_experiment(experiment, quick=True).render()

    with tempfile.TemporaryDirectory(prefix="service-smoke-") as name:
        scratch = Path(name)
        process, url = start_server(scratch)
        try:
            client = ServiceClient(url)

            print(f"service-smoke: submitting {experiment} under chaos kills")
            status, first = client.submit(experiment, wait=True)
            if status != 200 or first.get("status") != "done":
                fail(f"chaos submit did not complete: {status} {first}")
            if first.get("source") != "fresh":
                fail(f"first submit should simulate, got {first.get('source')}")
            if first["result"]["report"] != serial:
                fail("chaos-run report differs from the serial run")
            print(
                "service-smoke: chaos run byte-identical "
                f"({first['tasks_executed']} tasks, "
                f"{first['job_seconds']:.2f}s, "
                f"simulations {first['backends']['simulations']})"
            )

            status, second = client.submit(experiment, wait=True)
            if status != 200 or not second.get("cache_hit"):
                fail(f"second submit was not a cache hit: {status} {second}")
            if second.get("tasks_executed") != 0:
                fail(
                    "cache hit ran "
                    f"{second.get('tasks_executed')} simulations (want 0)"
                )
            if second["result"]["report"] != serial:
                fail("cached report differs from the serial run")
            print("service-smoke: warm resubmit hit the cache, 0 simulations")

            pool = client.stats()["pool"]
            if pool["worker_restarts"] < 1 or pool["tasks_retried"] < 1:
                fail(
                    "chaos was configured but left no supervision "
                    f"evidence: {pool}"
                )
            if set(first["backends"]["simulations"]) != {"numpy"}:
                fail(
                    "the retried tasks were not all numpy batches: "
                    f"{first['backends']}"
                )
            print(
                "service-smoke: supervisor recovered "
                f"{pool['worker_restarts']} worker deaths "
                f"({pool['tasks_retried']} task retries, "
                f"mean recovery {pool['mean_recovery_seconds']:.2f}s)"
            )
        except BaseException:
            process.kill()
            process.wait()
            raise
        problem = stop_server(process)
        if problem is not None:
            fail(problem)
        print(
            "service-smoke: SIGTERM closed the server and its workers"
        )

    print("service-smoke: OK")


if __name__ == "__main__":
    main()
