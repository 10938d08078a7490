"""The benchmark of record: four workloads, end-to-end and per-layer metrics.

Usage::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [-o runs.json]

Each workload runs as a series of passes, one fresh process at a time
(``workloads.py``), for about ``--seconds`` and at least three passes;
every end-to-end metric is the median over the passes.  Before timing,
the report digests the passes must produce are taken from
``expected.json`` or, for an unpinned seed, computed by the backend the
workload does not time.  Any mismatch, error or refused request fails
the run (exit code 1).

``--trace 1`` adds one traced pass after the untraced ones and reports
the per-layer metrics instead; end-to-end numbers always come from
untraced passes.  ``-o`` appends the run, with every pass and the
trace, to a JSON document that ``compare.py`` reads.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from tracer import layer_metrics, layer_self_seconds, percentile, self_time_violations
from workloads import ROOT, SRC, WORK, WORKLOADS, Workload, output_key

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

#: End-to-end metrics and their units (BENCHMARK.json holds the bounds).
END_TO_END = {
    "sim_cycles_per_s": "cycles/s",
    "req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics of a traced run, and their units.
PER_LAYER = {
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "parallel.simulate_s": "s",
    "parallel.self_s": "s",
    "parallel.sims": "count",
    "kernel.batches": "count",
    "kernel.batch_width": "count",
    "kernel.setup_s": "s",
    "kernel.arrivals_s": "s",
    "kernel.step_s": "s",
    "kernel.step_us_p50": "us",
    "kernel.step_us_p99": "us",
    "kernel.finish_s": "s",
    "kernel.sim_cycles_per_step_s": "cycles/s",
    "network.build_s": "s",
    "network.step_s": "s",
    "network.step_us_p50": "us",
    "network.step_us_p99": "us",
    "network.self_s": "s",
    "switch.plan_calls": "count",
    "switch.plan_s": "s",
    "switch.grants_per_plan": "count",
    "switch.execute_s": "s",
    "switch.receive_calls": "count",
    "switch.receive_s": "s",
    "sources.generate_calls": "count",
    "sources.generate_s": "s",
    "cache.get_calls": "count",
    "cache.get_s": "s",
    "cache.hit_frac": "ratio",
    "cache.put_calls": "count",
    "cache.put_s": "s",
    "cache.flush_s": "s",
    "service.submit_ms_p50": "ms",
    "service.hit_ms_p50": "ms",
    "service.hit_ms_p95": "ms",
    "service.hits": "count",
    "service.fresh_s_p50": "s",
    "service.fresh": "count",
    "service.coalesced": "count",
    "service.job_s": "s",
    "supervisor.map_calls": "count",
    "supervisor.map_s": "s",
    "supervisor.tasks": "count",
    "supervisor.worker_restarts": "count",
    "supervisor.tasks_retried": "count",
    "trace.overhead_frac": "ratio",
}

#: Passes per workload however short ``--seconds`` is: a median needs three.
MIN_PASSES = 3
#: One workload's run, verification and traced passes included, ends
#: within this many seconds or fails.
DEADLINE_S = 170.0


class PassError(RuntimeError):
    """A pass process failed, timed out or printed no result."""


def child_env() -> dict[str, str]:
    """The pass environment: this checkout's sources, no ``REPRO_*``
    preferences from the caller, temporary files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def spawn(spec: dict[str, Any], deadline: float) -> dict[str, Any]:
    """Run one ``workloads.py`` process and return its JSON result.

    The process leads its own process group, so a timeout or an
    interrupt stops the pool workers it started too.
    """
    spec = {**spec, "spawned": time.monotonic()}
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise PassError(f"{spec['workload']} pass overran the deadline") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    lines = out.decode().strip().splitlines()
    if process.returncode != 0 or not lines:
        raise PassError(
            f"{spec['workload']} {spec['mode']} process exited "
            f"{process.returncode}"
        )
    return json.loads(lines[-1])


def expected_digests(
    workload: Workload, seed: int, pins: dict[str, str], deadline: float
) -> tuple[dict[str, str], str]:
    """The digests a pass must produce, and where they came from."""
    keys = [output_key(e, seed) for e in workload.experiments]
    if all(key in pins for key in keys):
        return {key: pins[key] for key in keys}, "pinned"
    spec = {
        "mode": "expect",
        "workload": workload.name,
        "seed": seed,
        "backend": workload.check_backend,
    }
    digests = spawn(spec, deadline)["digests"]
    return digests, f"computed by the {workload.check_backend} backend before timing"


def end_to_end(passes: list[dict[str, Any]]) -> dict[str, tuple[float, int]]:
    """Median over a run's untraced passes of each end-to-end metric."""

    def median(values: list[float]) -> tuple[float, int]:
        return statistics.median(values), len(values)

    return {
        "sim_cycles_per_s": median([p["cycles"] / p["seconds"] for p in passes]),
        "req_per_s": median([p["answered"] / p["seconds"] for p in passes]),
        "setup_s": median([p["setup_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(
    passes: list[dict[str, Any]], traced: dict[str, Any]
) -> dict[str, tuple[float, int]]:
    """Per-layer metrics of the traced pass, in ``PER_LAYER`` order.

    The service's client-side latencies and server counters need no
    tracing; they come from the untraced passes (counts are per pass).
    """
    found = layer_metrics(traced["trace"])
    metrics = {name: found.get(name, (0.0, 0)) for name in PER_LAYER}
    untraced = statistics.median(p["seconds"] for p in passes)
    metrics["trace.overhead_frac"] = (traced["seconds"] / untraced - 1.0, 1)
    served = [p["service"] for p in passes if "service" in p]
    if served:
        every = sorted(ms for s in served for ms in s["all_ms"])
        hits = sorted(ms for s in served for ms in s["hit_ms"])
        fresh = sorted(ms for s in served for ms in s["fresh_ms"])

        def per_pass(key: str) -> tuple[float, int]:
            return statistics.mean(s[key] for s in served), len(served)

        metrics.update(
            {
                "service.submit_ms_p50": (percentile(every, 0.50), len(every)),
                "service.hit_ms_p50": (percentile(hits, 0.50), len(hits)),
                "service.hit_ms_p95": (percentile(hits, 0.95), len(hits)),
                "service.hits": (len(hits) / len(served), len(served)),
                "service.fresh_s_p50": (percentile(fresh, 0.50) / 1e3, len(fresh)),
                "service.fresh": (len(fresh) / len(served), len(served)),
                "service.coalesced": per_pass("coalesced"),
                "service.job_s": per_pass("job_s"),
                "supervisor.worker_restarts": per_pass("worker_restarts"),
                "supervisor.tasks_retried": per_pass("tasks_retried"),
            }
        )
    return metrics


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    pins: dict[str, str],
) -> dict[str, Any]:
    """Verify, time and (optionally) trace one workload."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    result: dict[str, Any] = {
        "workload": workload.name,
        "correct": False,
        "attempted": 0,
        "failed": 0,
        "mismatches": 0,
        "error": None,
        "end_to_end": {},
        "per_layer": {},
        "passes": [],
    }
    passes: list[dict[str, Any]] = []
    traced: dict[str, Any] | None = None
    expected: dict[str, str] = {}
    try:
        expected, result["expected"] = expected_digests(workload, seed, pins, deadline)
        walls: list[float] = []
        measuring = time.monotonic()
        while len(passes) < MIN_PASSES or (
            time.monotonic() - measuring + statistics.median(walls) <= seconds
        ):
            begin = time.monotonic()
            passes.append(spawn(_pass_spec(workload, seed, "off"), deadline))
            walls.append(time.monotonic() - begin)
        if trace:
            traced = spawn(_pass_spec(workload, seed, workload.trace_level), deadline)
    except PassError as exc:
        result["error"] = str(exc)
        result["failed"] += 1
        result["attempted"] += 1
    for done in passes + ([traced] if traced else []):
        result["attempted"] += done["attempted"]
        result["failed"] += done["failed"]
        for key, value, count in done["outputs"]:
            if value != expected.get(key):
                result["mismatches"] += count
    result["failed"] += result["mismatches"]
    if passes:
        result["end_to_end"] = end_to_end(passes)
    if traced:
        result["per_layer"] = per_layer(passes, traced)
        if self_time_violations(traced["trace"]):
            result["error"] = "inconsistent self times in the trace"
        for agg in traced["trace"]["aggregates"]:
            agg["samples"] = None  # summarized in the metrics above
        result["trace"] = {
            "level": workload.trace_level,
            "seconds": traced["seconds"],
            "layers_self_s": layer_self_seconds(traced["trace"]),
            **traced["trace"],
        }
    result["passes"] = [
        {k: v for k, v in p.items() if k not in ("outputs", "trace", "service")}
        for p in passes
    ]
    wanted = result["per_layer"] if trace else result["end_to_end"]
    result["correct"] = (
        result["error"] is None and result["failed"] == 0 and bool(wanted)
    )
    return result


def _pass_spec(workload: Workload, seed: int, level: str) -> dict[str, Any]:
    return {"mode": "pass", "workload": workload.name, "seed": seed, "level": level}


def host() -> dict[str, Any]:
    """Python, numpy, CPU count and CPU model of this host."""
    import platform
    from importlib.metadata import version

    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.partition(":")[2].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
    }


def append_run(path: Path, run: dict[str, Any]) -> None:
    """Append ``run`` to the runs document at ``path`` (created if new)."""
    document = (
        json.loads(path.read_text())
        if path.exists()
        else {"schema": 1, "host": host(), "runs": []}
    )
    document["runs"].append(run)
    path.write_text(json.dumps(document, indent=1) + "\n")


def _metric_table(name: str, result: dict[str, Any], units: dict[str, str]) -> None:
    print(f"== {name}: expected digests {result.get('expected', 'unavailable')}")
    if result["error"]:
        print(f"   error: {result['error']}")
    print(
        f"   attempted {result['attempted']}, failed {result['failed']} "
        f"({result['mismatches']} digest mismatches)"
    )
    metrics = result["per_layer"] or result["end_to_end"]
    for metric, unit in units.items():
        if metric in metrics:
            value, samples = metrics[metric]
            print(f"   {metric:<30} {value:>16.6g} {unit:<9} n={samples}")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1988)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("-o", "--output", type=Path)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, pins: dict[str, str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    if pins is None:
        pins = json.loads(EXPECTED.read_text())["digests"]
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    units = PER_LAYER if args.trace else END_TO_END
    results = {}
    for name in names:
        result = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), pins
        )
        _metric_table(name, result, units)
        results[name] = result
    if args.output:
        append_run(
            args.output,
            {
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "workloads": results,
            },
        )

    def named(workload: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{workload}/{metric}"

    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            named(workload, metric): {"value": value, "unit": units[metric]}
            for workload, result in results.items()
            for metric, (value, _samples) in (
                result["per_layer"] if args.trace else result["end_to_end"]
            ).items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
