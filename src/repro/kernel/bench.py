"""Backend benchmark: reference vs numpy on the paper's headline grids.

Times both backends end-to-end — kernel construction, arrival-stream
preparation, the cycle loop and result summarization — on the figure 3
and table 3 grids, the two experiments whose simulation volume dominates
the paper pipeline.  The reference backend runs each configuration
individually (one ``parallel_simulate`` task per config); the numpy
backend runs through ``parallel_simulate`` itself, serially, one fused
kernel per :func:`~repro.kernel.base.batch_group_key` group.

Two numpy measurements are reported.  The per-grid rows batch within
one experiment's grid (how a single ``run_experiment`` call dispatches
it).  The headline **aggregate** fuses the whole figure3+table3
workload — the batch groups span experiments, since the group key
keeps neither protocol nor buffer kind (both are per-virtual-stage
state, and all four kinds share one ring layout), so the quick workload
runs as one kernel and the array dispatch cost amortizes over all 26
simulations at once, exactly as one fused sweep would run it.

Results land in ``benchmarks/BENCH_9[_quick].json`` with per-backend
wall/throughput fields; ``python -m repro.kernel bench`` is the entry
point and CI's perf-smoke job enforces a minimum aggregate speedup with
``--min-speedup``.

Every benchmark run also cross-checks the two backends' final
:class:`~repro.network.metrics.SimulationResult` digests — a benchmark
that quietly timed two different computations would be worthless.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.figure3 import QUICK_LOADS, SWEEP_LOADS
from repro.experiments.report import sim_cycles
from repro.experiments.table3 import _CELLS as TABLE3_CELLS
from repro.experiments.table3 import _KIND_ORDER as TABLE3_KINDS
from repro.kernel.base import make_kernel
from repro.network.simulator import NetworkConfig
from repro.switch.flow_control import Protocol
from repro.utils.digest import digest_json

__all__ = [
    "KERNEL_BENCH_SCHEMA",
    "bench_grids",
    "run_kernel_bench",
    "write_kernel_bench",
]

#: Version tag of the kernel benchmark document.
KERNEL_BENCH_SCHEMA = 1


def bench_grids(
    quick: bool = True, seed: int = 1988
) -> dict[str, list[NetworkConfig]]:
    """The benchmark's simulation grids, keyed by experiment name.

    Mirrors the figure 3 and table 3 grids exactly (same loads, cells
    and kind order) so the measured cycles/s translate directly to the
    experiment pipeline's wall time.
    """
    figure3 = [
        NetworkConfig(
            buffer_kind=kind,
            slots_per_buffer=4,
            protocol=Protocol.BLOCKING,
            arbiter_kind="smart",
            traffic_kind="uniform",
            offered_load=load,
            seed=seed,
        )
        for kind in ("FIFO", "DAMQ")
        for load in (QUICK_LOADS if quick else SWEEP_LOADS)
    ]
    table3 = [
        NetworkConfig(
            buffer_kind=kind,
            slots_per_buffer=4,
            protocol=Protocol.DISCARDING,
            arbiter_kind=arbiter,
            traffic_kind="uniform",
            offered_load=load,
            seed=seed,
        )
        for kind in TABLE3_KINDS
        for (_label, load, arbiter) in TABLE3_CELLS
    ]
    return {"figure3": figure3, "table3": table3}


def _run_reference(
    configs: list[NetworkConfig], warmup: int, measure: int
) -> tuple[float, list[Any]]:
    start = time.perf_counter()  # repro: noqa=REP002 (benchmark harness: timing backends is this module's purpose)
    results = [
        make_kernel(config, "reference").run(warmup, measure)
        for config in configs
    ]
    return time.perf_counter() - start, results  # repro: noqa=REP002 (benchmark harness: timing backends is this module's purpose)


def _run_numpy(
    configs: list[NetworkConfig], warmup: int, measure: int
) -> tuple[float, list[Any], int]:
    from repro.kernel.base import batch_group_key
    from repro.perf.parallel import parallel_simulate

    start = time.perf_counter()  # repro: noqa=REP002 (benchmark harness: timing backends is this module's purpose)
    results = parallel_simulate(configs, warmup, measure, backend="numpy")
    wall = time.perf_counter() - start  # repro: noqa=REP002 (benchmark harness: timing backends is this module's purpose)
    return wall, results, len({batch_group_key(c) for c in configs})


def run_kernel_bench(
    quick: bool = True,
    seed: int = 1988,
    repeats: int = 1,
    progress: bool = True,
) -> dict[str, Any]:
    """Benchmark both backends; return the benchmark document.

    With ``repeats > 1`` each (grid, backend) measurement is taken that
    many times and the best wall time wins — the standard defence
    against shared-machine noise.  The two backends' results are
    digest-compared on every repeat; a mismatch aborts the benchmark
    with a :class:`SimulationError` because the timings would no longer
    describe the same computation.
    """
    if repeats < 1:
        raise ConfigurationError("repeats must be >= 1")
    warmup, measure = sim_cycles(quick)
    total = warmup + measure
    grids = bench_grids(quick=quick, seed=seed)
    records: dict[str, Any] = {}
    aggregate_ref = 0.0
    aggregate_cycles = 0
    reference_results: list[Any] = []
    all_configs: list[NetworkConfig] = []
    for name, configs in grids.items():
        cycles = len(configs) * total
        best_ref = best_numpy = float("inf")
        batches = 0
        grid_reference: list[Any] = []
        for _repeat in range(repeats):
            ref_wall, ref_results = _run_reference(configs, warmup, measure)
            numpy_wall, numpy_results, batches = _run_numpy(
                configs, warmup, measure
            )
            for config, left, right in zip(
                configs, ref_results, numpy_results
            ):
                if digest_json(left.to_state()) != digest_json(
                    right.to_state()
                ):
                    raise SimulationError(
                        f"backend results diverged on {name} "
                        f"({config.buffer_kind}@{config.offered_load:g}); "
                        "run `python -m repro.kernel diff` to localize"
                    )
            best_ref = min(best_ref, ref_wall)
            best_numpy = min(best_numpy, numpy_wall)
            grid_reference = ref_results
        record = {
            "sims": len(configs),
            "cycles": cycles,
            "reference": {
                "wall_s": round(best_ref, 3),
                "cycles_per_s": round(cycles / best_ref, 1),
            },
            "numpy": {
                "wall_s": round(best_numpy, 3),
                "cycles_per_s": round(cycles / best_numpy, 1),
                "batches": batches,
            },
            "speedup": round(best_ref / best_numpy, 2),
        }
        records[name] = record
        aggregate_ref += best_ref
        aggregate_cycles += cycles
        reference_results.extend(grid_reference)
        all_configs.extend(configs)
        if progress:
            print(
                f"  {name:<10} reference {best_ref:7.2f}s  "
                f"numpy {best_numpy:6.2f}s  "
                f"speedup {record['speedup']:.2f}x  ({batches} batch kernels)"
            )
    # The headline measurement: the whole workload fused, so batch
    # groups span experiment grids (see the module docstring).
    best_fused = float("inf")
    fused_batches = 0
    for _repeat in range(repeats):
        fused_wall, fused_results, fused_batches = _run_numpy(
            all_configs, warmup, measure
        )
        for config, left, right in zip(
            all_configs, reference_results, fused_results
        ):
            if digest_json(left.to_state()) != digest_json(right.to_state()):
                raise SimulationError(
                    f"fused-run results diverged from reference "
                    f"({config.buffer_kind}@{config.offered_load:g}); "
                    "run `python -m repro.kernel diff` to localize"
                )
        best_fused = min(best_fused, fused_wall)
    if progress:
        print(
            f"  {'fused':<10} reference {aggregate_ref:7.2f}s  "
            f"numpy {best_fused:6.2f}s  "
            f"speedup {aggregate_ref / best_fused:.2f}x  "
            f"({fused_batches} batch kernels)"
        )
    return {
        "schema": KERNEL_BENCH_SCHEMA,
        "kind": "kernel-backends",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "warmup_cycles": warmup,
        "measure_cycles": measure,
        "repeats": repeats,
        "grids": records,
        "aggregate": {
            "sims": len(all_configs),
            "cycles": aggregate_cycles,
            "reference_wall_s": round(aggregate_ref, 3),
            "numpy_wall_s": round(best_fused, 3),
            "numpy_batches": fused_batches,
            "reference_cycles_per_s": round(
                aggregate_cycles / aggregate_ref, 1
            ),
            "numpy_cycles_per_s": round(aggregate_cycles / best_fused, 1),
            "speedup": round(aggregate_ref / best_fused, 2),
        },
    }


def write_kernel_bench(document: dict[str, Any], path: str | Path) -> Path:
    """Write a kernel benchmark document as pretty-printed JSON."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path
