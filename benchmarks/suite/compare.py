"""Compare two sets of benchmark runs: a parent (A) and a change (B).

Usage::

    python3 benchmarks/suite/compare.py A.json B.json
    python3 benchmarks/suite/compare.py baseline.json#a baseline.json#b

Each file is a runs document written by ``run.py -o``; ``FILE#name``
selects one set of a document that holds several under ``sets`` (as
``baseline.json`` does).  Runs are paired in order, so record them
alternately: parent, change, change, parent, ...

Every workload x end-to-end metric gets one row, labelled with the
bounds of BENCHMARK.json:

* **improved** — B wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ, in B's favour, by more than A's interquartile
  range;
* **regressed** — B's median is worse than A's by more than the
  metric's bound;
* **unresolved** — fewer than 10 pairs, or A's own spread (IQR over
  median) exceeds the bound and B does not read better on every run;
* **unchanged** — otherwise.

Failures get a row per workload too: any increase is a regression.
When both files hold traced runs, per-layer self times and metrics are
printed as deltas of their medians.  Exit code 1 when anything
regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10


def load_runs(spec: str) -> list[dict[str, Any]]:
    """The runs of ``FILE`` or of set ``name`` in ``FILE#name``."""
    path, _, name = spec.partition("#")
    document = json.loads(Path(path).read_text())
    if name:
        document = document["sets"][name]
    return document["runs"]


def values(
    runs: list[dict[str, Any]], workload: str, block: str, metric: str
) -> list[float]:
    return [
        run["workloads"][workload][block][metric][0]
        for run in runs
        if metric in run["workloads"].get(workload, {}).get(block, {})
    ]


def judge(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Label B against A for one metric (see the module docstring)."""
    pairs = min(len(a), len(b))
    if pairs < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    if wins >= 0.9 * pairs and sign * (median_b - median_a) > q3 - q1:
        return "improved"
    if sign * (median_a - median_b) > bound * abs(median_a):
        return "regressed"
    if (q3 - q1) > bound * abs(median_a) and not (
        min(sign * y for y in b) > max(sign * x for x in a)
    ):
        return "unresolved"
    return "unchanged"


def _spread(series: list[float]) -> str:
    if len(series) < 2:
        return f"{series[0]:.5g}"
    q1, median, q3 = statistics.quantiles(series, n=4)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def _failures(runs: list[dict[str, Any]], workload: str) -> tuple[int, int]:
    """(failed, attempted) summed over the runs of ``workload``."""
    results = [r["workloads"][workload] for r in runs if workload in r["workloads"]]
    return (
        sum(r["failed"] for r in results),
        sum(r["attempted"] for r in results),
    )


def compare_end_to_end(
    a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]]
) -> bool:
    """Print the end-to-end table; returns whether anything regressed."""
    spec = json.loads(BENCHMARK.read_text())
    a_runs = [r for r in a_runs if not r["trace"]]
    b_runs = [r for r in b_runs if not r["trace"]]
    workloads = [w["name"] for w in spec["workloads"]]
    regressed = False
    print(f"{'workload':<20} {'metric':<18} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'change':>8} {'wins':>6}  label")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = values(a_runs, workload, "end_to_end", name)
            b = values(b_runs, workload, "end_to_end", name)
            if not a or not b:
                continue
            label = judge(a, b, metric["better"], metric["bound"])
            regressed |= label == "regressed"
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            change = statistics.median(b) / statistics.median(a) - 1.0
            print(f"{workload:<20} {name:<18} {_spread(a):<34} {_spread(b):<34} "
                  f"{change:>+8.2%} {wins:>3}/{min(len(a), len(b)):<2}  {label}")
        (a_failed, a_tried), (b_failed, b_tried) = (
            _failures(a_runs, workload),
            _failures(b_runs, workload),
        )
        if a_tried and b_tried:
            worse = b_failed / b_tried > a_failed / a_tried
            regressed |= worse
            print(f"{workload:<20} {'failed':<18} {f'{a_failed}/{a_tried}':<34} "
                  f"{f'{b_failed}/{b_tried}':<34} {'':>8} {'':>6}  "
                  f"{'regressed' if worse else 'unchanged'}")
    return regressed


def _median_map(results: list[dict[str, Any]], pick: Any) -> dict[str, float]:
    collected: dict[str, list[float]] = {}
    for result in results:
        for key, value in pick(result).items():
            collected.setdefault(key, []).append(value)
    return {key: statistics.median(series) for key, series in collected.items()}


def _self_times(result: dict[str, Any]) -> dict[str, float]:
    return result["trace"]["layers_self_s"]


def _layer_values(result: dict[str, Any]) -> dict[str, float]:
    return {
        name: value
        for name, (value, samples) in result["per_layer"].items()
        if samples
    }


def compare_layers(a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]]) -> None:
    """Print per-layer self-time and metric deltas of the traced runs."""

    def traced(runs: list[dict[str, Any]], workload: str) -> list[dict[str, Any]]:
        return [
            run["workloads"][workload]
            for run in runs
            if run["trace"] and run["workloads"].get(workload, {}).get("per_layer")
        ]

    names = {w for run in a_runs + b_runs for w in run["workloads"]}
    for workload in sorted(names):
        a_results, b_results = traced(a_runs, workload), traced(b_runs, workload)
        if not a_results or not b_results:
            continue
        print(f"\n== {workload}: traced runs, median of A -> median of B")
        for title, pick in (
            ("self time per layer (s)", _self_times),
            ("per-layer metric", _layer_values),
        ):
            a, b = _median_map(a_results, pick), _median_map(b_results, pick)
            print(f"   {title}")
            for key in sorted(set(a) | set(b)):
                x, y = a.get(key, 0.0), b.get(key, 0.0)
                delta = f"{y / x - 1:+.2%}" if x else "new"
                print(f"     {key:<36} {x:>14.6g} -> {y:<14.6g} {delta}")


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a_runs, b_runs = load_runs(argv[1]), load_runs(argv[2])
    regressed = compare_end_to_end(a_runs, b_runs)
    compare_layers(a_runs, b_runs)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
