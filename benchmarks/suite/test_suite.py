"""Tests of the benchmark suite itself: ``pytest benchmarks/suite``.

They drive the suite through its Python API on the cheapest workload at
a pinned seed, so they take a few passes' worth of time.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
from tracer import (
    Tracer,
    _resolve,
    layer_metrics,
    layer_self_seconds,
    self_time_violations,
    self_times,
    targets_for,
)
from workloads import ROOT, SRC

sys.path.insert(0, str(SRC))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
QUICK = ["--workload", "fig3-block-numpy", "--seed", "1988", "--seconds", "0"]


def last_json_line(capsys: pytest.CaptureFixture[str]) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json(capsys):
    assert run.END_TO_END == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert run.main(QUICK) == 0
    summary = last_json_line(capsys)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_corrupted_pin_fails_the_run(capsys):
    pins = json.loads(run.EXPECTED.read_text())["digests"]
    pins["figure3/quick/1988"] = "0" * 64
    assert run.main(QUICK, pins=pins) == 1
    summary = last_json_line(capsys)
    assert not summary["correct"]
    assert summary["failed"] / summary["attempted"] > 0


def _span(span_id, start, end, parent=None, name="experiments.run"):
    return {
        "id": span_id,
        "name": name,
        "start_ns": start,
        "end_ns": end,
        "parent": parent,
        "thread": 1,
        "attrs": {},
    }


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100) holds two overlapping children (union [10, 60)) and
    # 20 ns of aggregated calls; child 2 holds a grandchild [15, 25).
    trace = {
        "spans": [
            _span(1, 0, 100),
            _span(2, 10, 40, parent=1, name="parallel.simulate"),
            _span(3, 30, 60, parent=1, name="parallel.simulate"),
            _span(4, 15, 25, parent=2, name="kernel.run_batch"),
        ],
        "aggregates": [
            {"name": "cache.get", "parent": "span:1", "count": 2,
             "total_ns": 20, "child_ns": 0, "extra": 1, "samples": None},
            {"name": "kernel.step", "parent": "span:4", "count": 3,
             "total_ns": 6, "child_ns": 4, "extra": 0, "samples": [1, 2, 3]},
            {"name": "kernel.prepare", "parent": "span:4/kernel.step", "count": 1,
             "total_ns": 4, "child_ns": 0, "extra": 0, "samples": None},
        ],
    }
    assert self_times(trace) == {1: 30, 2: 20, 3: 30, 4: 4}
    assert self_time_violations(trace) == []
    assert layer_self_seconds(trace) == pytest.approx(
        {"cache": 20e-9, "experiments": 30e-9, "kernel": 10e-9, "parallel": 50e-9}
    )
    metrics = layer_metrics(trace)
    assert metrics["cache.hit_frac"] == (0.5, 2)
    assert metrics["kernel.step_us_p50"] == (2e-3, 3)

    trace["spans"][1]["end_ns"] = 200  # a child outliving its parent
    assert 1 in self_time_violations(trace)


def _attribute_sites(targets):
    """Every place a target is bound: its owner and module aliases."""
    sites = {}
    for target in targets:
        owner, attr = _resolve(target.path)
        raw = owner.__dict__[attr]
        sites[(id(owner), attr)] = raw
        for name, module in list(sys.modules.items()):
            if name.startswith("repro"):
                for key, value in vars(module).items():
                    if value is raw:
                        sites[(id(module), key)] = raw
    return sites


def test_trace_restores_every_wrapped_attribute():
    from repro.experiments import runner
    from repro.network.simulator import NetworkConfig, OmegaNetworkSimulator
    from repro.perf import parallel

    targets = targets_for("fine")
    before = _attribute_sites(targets)
    step = OmegaNetworkSimulator.step
    tracer = Tracer()
    with tracer.installed(targets):
        assert OmegaNetworkSimulator.step is not step
        config = NetworkConfig(num_ports=16, offered_load=0.5, seed=3)
        parallel.parallel_simulate([config], 10, 20, backend="reference")
        parallel.parallel_simulate([config, config], 10, 20, backend="numpy")
        runner.run_experiment("table2", quick=True)
    after = _attribute_sites(targets)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert OmegaNetworkSimulator.step is step

    trace = tracer.export()
    assert self_time_violations(trace) == []
    metrics = layer_metrics(trace)
    assert metrics["network.step_s"][1] == 30
    assert metrics["kernel.batch_width"] == (2.0, 1)
    assert metrics["kernel.step_us_p99"][1] == 30
    assert metrics["experiments.run_s"][1] == 1
