"""Performance layer: the parallel experiment engine.

The paper pipeline is a large grid of *independent* simulation runs —
every table cell and curve point is one :class:`~repro.network.simulator.
NetworkConfig` with its own root seed, so the grid is embarrassingly
parallel and bit-reproducible in any execution order.
:func:`parallel_simulate` / :func:`parallel_map` map over independent
runs on the supervised worker pool (``jobs=1`` degrades to the plain
serial loop, so serial and parallel results are byte-identical), and
:func:`simulated_cycles` counts the network cycles they executed.

Nothing here reads a clock.  Performance is measured by the benchmark
of record, ``benchmarks/suite`` (see its README), and the two kernel
backends' speedup ratio by ``python -m repro.kernel bench``.
"""

from repro.perf.parallel import (
    parallel_map,
    parallel_simulate,
    resolve_jobs,
    reset_simulated_cycles,
    simulated_cycles,
)

__all__ = [
    "parallel_map",
    "parallel_simulate",
    "resolve_jobs",
    "reset_simulated_cycles",
    "simulated_cycles",
]
