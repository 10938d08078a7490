"""The suite's workloads, and the process that runs one pass of one.

Run as a script with one JSON argument, this module executes a single
pass of a workload (optionally traced), or computes the report digests
a workload is expected to produce, and prints one JSON line.  The
orchestrator (``run.py``) starts a fresh process per pass, so a pass's
set-up time and peak memory are its own.

Every input is made here from the workload seed: the experiment seed,
and for the service the Zipf request plan.  The program only sees the
resulting calls and requests.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from tracer import Tracer, targets_for

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space of a run (service data directories, temp files).
WORK = Path(__file__).resolve().parent / ".work"

#: The service workload's request mix: a Zipf(1.1) draw over these
#: experiments, in popularity order, at the workload seed, sent by a
#: closed loop of two clients.  Only table6 simulates; the rest answer
#: in milliseconds, so one pass stays short and a run holds several.
SERVICE_CATALOG = ("table6", "table2", "table1", "figure1")
SERVICE_REQUESTS = 200
SERVICE_CLIENTS = 2
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Workload:
    name: str
    #: Paper experiments one pass runs, at quick fidelity.
    experiments: tuple[str, ...]
    #: Backend of the timed simulations.
    backend: str
    #: Backend that computes the expected digests for an unpinned seed:
    #: the one this workload does not time, so the check is independent.
    check_backend: str
    #: Tracing level of the traced pass (see ``tracer.targets_for``).
    trace_level: str


# Every workload keeps one process busy at a time.  On a two-CPU host,
# two busy processes (a two-job pool, two service workers) made run-to-
# run throughput vary by 20-30%, too much to gate a change on.
WORKLOADS = {
    workload.name: workload
    for workload in (
        # Blocking near saturation: the numpy kernel takes the sequenced
        # stage walk on nearly every cycle.
        Workload("fig3-block-numpy", ("figure3",), "numpy", "reference", "fine"),
        # Discarding never takes the sequenced walk; this grid alone has
        # SAFC multi-read passes and mixed smart/dumb arbiters.
        Workload("tab3-discard-numpy", ("table3",), "numpy", "reference", "fine"),
        # The object simulator does all the work, the numpy kernel none:
        # every buffer kind under hot-spot traffic.
        Workload("tab6-hotspot-ref", ("table6",), "reference", "numpy", "fine"),
        # Dedup and coalescing, both result caches and the supervised
        # worker pool behind the HTTP front end; most requests are hits.
        Workload("service-zipf", SERVICE_CATALOG, "reference", "numpy", "coarse"),
    )
}


def output_key(experiment: str, seed: int) -> str:
    return f"{experiment}/quick/{seed}"


def zipf_plan(seed: int) -> list[str]:
    """The experiments the service workload requests, in order, at ``seed``."""
    weights = [
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(SERVICE_CATALOG))
    ]
    return random.Random(seed).choices(SERVICE_CATALOG, weights, k=SERVICE_REQUESTS)


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children, MiB."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


def expect(workload: Workload, seed: int, backend: str) -> dict[str, Any]:
    """Digests of the reports ``workload`` must produce at ``seed``."""
    from repro.experiments.runner import run_experiment

    return {
        "digests": {
            output_key(e, seed): digest(
                run_experiment(e, quick=True, seed=seed, backend=backend).render()
            )
            for e in workload.experiments
        }
    }


def sim_pass(workload: Workload, seed: int, spawned: float, level: str) -> dict[str, Any]:
    """One pass of a simulation workload: its experiments, timed."""
    import repro.kernel.numpy_kernel  # noqa: F401 - part of set-up
    from repro.experiments import runner
    from repro.perf import parallel

    setup_s = time.monotonic() - spawned
    tracer = Tracer()
    with tracer.installed(targets_for(level)):
        parallel.reset_simulated_cycles()
        start = time.perf_counter()
        reports = [
            (
                experiment,
                # Looked up per call, so a traced pass sees the wrapper.
                runner.run_experiment(
                    experiment,
                    quick=True,
                    seed=seed,
                    backend=workload.backend,
                ).render(),
            )
            for experiment in workload.experiments
        ]
        seconds = time.perf_counter() - start
    return {
        "setup_s": setup_s,
        "seconds": seconds,
        "cycles": parallel.simulated_cycles(),
        "attempted": len(reports),
        "answered": len(reports),
        "failed": 0,
        "outputs": [[output_key(e, seed), digest(r), 1] for e, r in reports],
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.export() if level != "off" else None,
    }


def _classify(status: int, document: dict[str, Any]) -> str:
    """A service answer's outcome, as the bench client counts them."""
    if status == 429:
        return "rejected"
    result = document.get("result") or {}
    if result.get("degraded"):
        return "degraded"
    if status != 200 or document.get("status") != "done" or "report" not in result:
        return "failed"
    if document.get("cache_hit") or document.get("source") == "cached":
        return "hit"
    return "fresh"


def closed_loop(
    client: Any, plan: list[str], seed: int
) -> tuple[list[dict[str, Any]], float]:
    """Request ``plan`` at ``seed`` from ``SERVICE_CLIENTS`` threads, each
    waiting for its answer before taking the next request; returns the
    per-request records and the loop's wall time."""
    lock = threading.Lock()
    pending = iter(enumerate(plan))
    records: list[dict[str, Any]] = []

    def client_thread(index: int) -> None:
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            position, experiment = item
            begin = time.perf_counter()
            try:
                status, document = client.submit(
                    experiment,
                    seed=seed,
                    wait=True,
                    retry_key=f"suite/{index}/{position}",
                )
            except OSError as exc:
                status, document = 0, {"error": str(exc)}
            elapsed = time.perf_counter() - begin
            report = (document.get("result") or {}).get("report")
            with lock:
                records.append(
                    {
                        "key": output_key(experiment, seed),
                        "outcome": _classify(status, document),
                        "ms": elapsed * 1e3,
                        "digest": digest(report) if report is not None else None,
                    }
                )

    threads = [
        threading.Thread(target=client_thread, args=(n,), name=f"suite-client-{n}")
        for n in range(SERVICE_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def _histogram_mean(document: dict[str, Any], name: str) -> float:
    for record in document.get("metrics", {}).get("metrics", []):
        if record["name"] == name and record["type"] == "histogram":
            return float(record["state"]["mean"]) if record["state"]["count"] else 0.0
    return 0.0


def service_pass(seed: int, spawned: float, level: str) -> dict[str, Any]:
    """One pass of the service workload: start, serve the plan, stop."""
    from repro.perf import parallel
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceConfig, serve_in_thread

    data_dir = WORK / f"service-{os.getpid()}"
    handle = serve_in_thread(ServiceConfig(workers=1, data_dir=data_dir))
    try:
        client = ServiceClient(handle.url)
        client.health()
        setup_s = time.monotonic() - spawned
        # Installed after the worker has forked, so the worker (which
        # would inherit the wrappers) runs untraced.
        tracer = Tracer()
        with tracer.installed(targets_for(level)):
            parallel.reset_simulated_cycles()
            records, seconds = closed_loop(client, zipf_plan(seed), seed)
        cycles = parallel.simulated_cycles()
        stats = client.stats()
        metrics = client.metrics()
    finally:
        handle.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    outcomes = Counter(record["outcome"] for record in records)
    answered = outcomes["hit"] + outcomes["fresh"]
    tally = Counter(
        (record["key"], record["digest"])
        for record in records
        if record["digest"] is not None
    )
    return {
        "setup_s": setup_s,
        "seconds": seconds,
        "cycles": cycles,
        "attempted": SERVICE_REQUESTS,
        "answered": answered,
        "failed": SERVICE_REQUESTS - answered,
        "outputs": [[key, value, count] for (key, value), count in tally.items()],
        "peak_rss_mb": peak_rss_mb(),
        "trace": tracer.export() if level != "off" else None,
        "service": {
            "hit_ms": [r["ms"] for r in records if r["outcome"] == "hit"],
            "fresh_ms": [r["ms"] for r in records if r["outcome"] == "fresh"],
            "all_ms": [r["ms"] for r in records],
            "coalesced": stats["jobs"].get("coalesced", 0),
            "job_s": _histogram_mean(metrics, "service_job_seconds"),
            "worker_restarts": stats["pool"]["worker_restarts"],
            "tasks_retried": stats["pool"]["tasks_retried"],
        },
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    workload = WORKLOADS[spec["workload"]]
    if spec["mode"] == "expect":
        result = expect(workload, spec["seed"], spec["backend"])
    elif workload.name == "service-zipf":
        result = service_pass(spec["seed"], spec["spawned"], spec["level"])
    else:
        result = sim_pass(workload, spec["seed"], spec["spawned"], spec["level"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
