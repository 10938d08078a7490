"""Registry and driver for all paper experiments."""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro.cache.runtime import CacheContext, activate
from repro.cache.store import ResultCache
from repro.errors import ConfigurationError
from repro.experiments import (
    ext_arch,
    ext_faults,
    ext_radix,
    ext_slotsize,
    ext_validation,
    ext_varlen,
    figure1,
    figure3,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.report import ExperimentResult

__all__ = ["EXPERIMENTS", "PAPER_EXPERIMENTS", "run_experiment", "run_all"]

#: The paper's own artifacts, by id.
PAPER_EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "figure1": figure1.run,
    "figure3": figure3.run,
}

#: All experiments: the paper's plus this reproduction's extensions.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    **PAPER_EXPERIMENTS,
    "ext-varlen": ext_varlen.run,
    "ext-slotsize": ext_slotsize.run,
    "ext-validation": ext_validation.run,
    "ext-radix": ext_radix.run,
    "ext-faults": ext_faults.run,
    "ext-arch": ext_arch.run,
}


def run_experiment(
    experiment_id: str,
    quick: bool = False,
    seed: int = 1988,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | Path | None = None,
    dispatcher: Callable[[Callable[[Any], Any], list[Any]], list[Any]]
    | None = None,
    backend: str | None = None,
) -> ExperimentResult:
    """Run one experiment by id ("table2", "figure3", ...).

    ``jobs`` fans each experiment's independent simulation grid over that
    many worker processes (``None``/``0`` = one per CPU).  Per-config
    seeding makes the results byte-identical to a ``jobs=1`` run.

    ``cache`` memoizes the experiment's per-config simulations in a
    content-addressed store: a warm re-run serves every result from the
    cache, byte-identical, without dispatching a single simulation.
    ``checkpoint_every``/``checkpoint_dir`` make each simulation write
    periodic checkpoints so a dead worker's replacement resumes
    mid-run instead of restarting.  Neither option changes the results
    in any bit.

    ``dispatcher`` replaces the mapper's own per-call pool with an
    external executor ``(fn, items) -> results`` — the simulation
    service passes its long-lived supervised pool here so all its
    concurrent jobs share one set of workers.

    ``backend`` forces a simulation backend for every grid the
    experiment fans out (``"reference"`` or ``"numpy"``); ``None``
    honours the ``REPRO_BACKEND`` preference.  Results are
    byte-identical across backends — a forced numpy request merely
    raises :class:`ConfigurationError` when combined with a feature the
    vectorized kernel does not implement.
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
    context = CacheContext(
        cache,
        experiment_id,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        dispatcher=dispatcher,
        backend=backend,
    )
    with activate(context):
        return runner(quick=quick, seed=seed, jobs=jobs)


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
