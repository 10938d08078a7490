"""Performance layer: the parallel experiment engine.

The paper pipeline is a large grid of *independent* simulation runs —
every table cell and curve point is one :class:`~repro.network.simulator.
NetworkConfig` with its own root seed, so the grid is embarrassingly
parallel and bit-reproducible in any execution order.
:func:`parallel_simulate` / :func:`parallel_map` map over independent
runs, memoized, on the run's executor: the supervised worker pool that
:func:`~repro.experiments.runner.run_experiment` opens for a ``jobs > 1``
run (or the service's pool), else the plain serial loop, so serial and
pooled results are byte-identical.  :func:`simulated_cycles` counts the
network cycles they executed.

Nothing here reads a clock.  Performance is measured by the benchmark
of record, ``benchmarks/suite`` (see its README), and the two kernel
backends' speedup ratio by ``python -m repro.kernel bench``.
"""

from repro.perf.parallel import (
    parallel_map,
    parallel_simulate,
    reset_simulated_cycles,
    simulated_cycles,
)

__all__ = [
    "parallel_map",
    "parallel_simulate",
    "reset_simulated_cycles",
    "simulated_cycles",
]
