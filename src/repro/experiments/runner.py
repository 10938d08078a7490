"""Registry and driver for all paper experiments.

The registry maps each experiment id to a callable that imports the
experiment's module on its first call.  Importing this module therefore
loads no experiment: a simulation run never pays for scipy, the Markov
chains, the chip model or the fault campaigns that only Table 1, Table 2
and some extensions need.

The runner also decides how a run executes.  Experiments only describe
their grids; :func:`run_experiment` resolves ``jobs`` and, above one,
opens one supervised worker pool for the whole experiment and installs
its ``map`` as the cache context's ``dispatcher`` — the same hook the
simulation service fills with its long-lived pool.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from typing import Any

from repro.cache.runtime import CacheContext, Dispatcher, activate
from repro.cache.store import ResultCache
from repro.errors import ConfigurationError
from repro.experiments.report import ExperimentResult

__all__ = [
    "EXPERIMENTS",
    "PAPER_EXPERIMENTS",
    "resolve_jobs",
    "run_experiment",
    "run_all",
]


def _deferred(experiment_id: str) -> Callable[..., ExperimentResult]:
    """``run`` of the experiment's module (the id with ``_`` for ``-``),
    imported on the first call."""
    module = f"repro.experiments.{experiment_id.replace('-', '_')}"

    def run(**options: Any) -> ExperimentResult:
        return import_module(module).run(**options)

    return run


#: The paper's own artifacts, by id.
PAPER_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    experiment_id: _deferred(experiment_id)
    for experiment_id in (
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "figure1",
        "figure3",
    )
}

#: All experiments: the paper's plus this reproduction's extensions.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    **PAPER_EXPERIMENTS,
    **{
        experiment_id: _deferred(experiment_id)
        for experiment_id in (
            "ext-varlen",
            "ext-slotsize",
            "ext-validation",
            "ext-radix",
            "ext-faults",
            "ext-arch",
        )
    },
}


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a jobs request: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")
    return jobs


@contextmanager
def _executor(
    jobs: int | None, dispatcher: Dispatcher | None
) -> Iterator[Dispatcher | None]:
    """The run's dispatcher: the caller's, a pool of ``jobs`` workers
    open for the duration, or ``None`` (serial) for one job."""
    workers = resolve_jobs(jobs)
    if dispatcher is not None or workers <= 1:
        yield dispatcher
        return
    # Imported here so that a serial run never loads the service
    # package (HTTP server, job store).
    from repro.service.supervisor import SupervisedPool, SupervisorConfig

    # No deadline: a full-fidelity grid point has no wall-clock bound.
    config = SupervisorConfig(workers=workers, task_deadline=None)
    with SupervisedPool(config) as pool:
        yield pool.map


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    seed: int = 1988,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    dispatcher: Dispatcher | None = None,
    backend: str | None = None,
) -> ExperimentResult:
    """Run one experiment by id ("table2", "figure3", ...).

    ``jobs`` fans the experiment's independent simulation grids over
    that many worker processes (``None``/``0`` = one per CPU): above
    one, a single supervised pool serves every grid of the experiment.
    Per-config seeding makes the results byte-identical to a ``jobs=1``
    run.

    ``cache`` memoizes the experiment's per-config simulations in a
    content-addressed store: a warm re-run serves every result from the
    cache, byte-identical, without dispatching a single simulation.
    ``checkpoint_every``/``checkpoint_dir`` make each simulation write
    periodic checkpoints so a dead worker's replacement resumes
    mid-run instead of restarting.  Neither option changes the results
    in any bit.

    ``dispatcher`` is an external executor ``(fn, items) -> results``
    that replaces the run's own pool (``jobs`` is then ignored) — the
    simulation service passes its long-lived supervised pool here so
    all its concurrent jobs share one set of workers.

    ``backend`` forces a simulation backend for every grid the
    experiment fans out (``"reference"`` or ``"numpy"``); ``None`` runs
    numpy wherever it is exact.  Results are byte-identical across
    backends — a forced numpy request merely raises
    :class:`ConfigurationError` when combined with a feature the
    vectorized kernel does not implement.
    The result's ``backends`` says which backend ran each executed
    simulation and why any fell back.
    """
    experiment_id = experiment_id.lower()
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        ) from None
    if backend is not None:
        from repro.kernel.base import normalize_backend

        backend = normalize_backend(backend)
    with _executor(jobs, dispatcher) as executor:
        context = CacheContext(
            cache,
            experiment_id,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            dispatcher=executor,
            backend=backend,
        )
        with activate(context):
            result = runner(quick=quick, seed=seed)
    result.backends = {
        "simulations": dict(context.backends),
        "fallbacks": dict(context.fallbacks),
    }
    return result


def run_all(
    quick: bool = False,
    seed: int = 1988,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    backend: str | None = None,
) -> list[ExperimentResult]:
    """Run every experiment in paper order (options as
    :func:`run_experiment`; all experiments share one ``cache``)."""
    return [
        run_experiment(
            experiment_id,
            quick=quick,
            seed=seed,
            jobs=jobs,
            cache=cache,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            backend=backend,
        )
        for experiment_id in EXPERIMENTS
    ]
