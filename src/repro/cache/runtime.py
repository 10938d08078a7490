"""Process-wide cache activation shared by the runner and the mappers.

The experiment runner decides *whether* caching (and checkpointing) is
on; the parallel mapper decides *what* each unit of work looks like.
They meet here: :func:`~repro.experiments.runner.run_experiment` wraps
each experiment in :func:`activate`, and
:func:`~repro.perf.parallel.parallel_map` consults :func:`active` to
short-circuit hits and store misses.  Keeping the context ambient
(rather than threading a parameter through every experiment module)
means the individual experiments stay cache-oblivious — the figure/table
code is identical with and without a cache.

The context lives in a :class:`contextvars.ContextVar` rather than a
bare module global so that concurrent activations in different threads
— the simulation service runs experiments on its job-runner thread
while its connection threads keep serving — see only their own context.  For the
single-threaded CLI paths the behaviour is unchanged.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any

from repro.cache.store import ResultCache
from repro.errors import ConfigurationError

__all__ = ["CacheContext", "Dispatcher", "activate", "active"]

#: Work executor ``(fn, items) -> results`` (see ``CacheContext``).
Dispatcher = Callable[[Callable[[Any], Any], list[Any]], list[Any]]


class CacheContext:
    """What the mapper needs to know while an experiment runs.

    Parameters
    ----------
    cache:
        The store, or ``None`` when only checkpointing is active.
    experiment:
        Suite-member name folded into every cache key.
    checkpoint_every:
        Periodic checkpoint cadence for each simulation, in cycles
        (``None`` disables checkpointing).
    checkpoint_dir:
        Directory for per-task checkpoint files; given together with
        ``checkpoint_every`` or not at all (:class:`ConfigurationError`
        otherwise).
    dispatcher:
        Optional work executor ``(fn, items) -> results`` for every
        map of the run; ``None`` runs the maps serially in-process.  The
        runner installs the pool it opens for a ``jobs > 1`` run here,
        and the simulation service its long-lived supervised pool, so
        that one set of workers serves the grid points of all its
        concurrent jobs.
    backend:
        Forced simulation backend (``"reference"``/``"numpy"``) applied
        to every grid the experiment fans out, or ``None`` for the
        numpy default, applied softly.  Ambient for the same reason the
        cache is: the figure/table code stays backend-oblivious.

    Attributes
    ----------
    backends:
        Simulations executed under this context, per backend (cache
        hits execute nothing and are not counted).
    fallbacks:
        Why executed simulations fell back from a soft numpy preference
        to the reference kernel, with a count per reason.
    """

    def __init__(
        self,
        cache: ResultCache | None,
        experiment: str,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | Path | None = None,
        dispatcher: Dispatcher | None = None,
        backend: str | None = None,
    ) -> None:
        if (checkpoint_every is None) != (checkpoint_dir is None):
            raise ConfigurationError(
                "checkpointing needs both checkpoint_every and "
                "checkpoint_dir; got only one"
            )
        self.cache = cache
        self.experiment = experiment
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.dispatcher = dispatcher
        self.backend = backend
        self.backends: Counter[str] = Counter()
        self.fallbacks: Counter[str] = Counter()

    @property
    def checkpointing(self) -> bool:
        """Whether per-task checkpoint/resume is configured."""
        return self.checkpoint_every is not None


_ACTIVE: ContextVar[CacheContext | None] = ContextVar(
    "repro_cache_context", default=None
)


def active() -> CacheContext | None:
    """The currently installed context (``None`` outside activation)."""
    return _ACTIVE.get()


@contextmanager
def activate(context: CacheContext) -> Iterator[CacheContext]:
    """Install ``context`` for the duration of one experiment.

    The store's index is flushed on the way out — one write per
    experiment, not per lookup.  Activations do not nest; the previous
    context is restored on exit so a nested runner is still safe.
    """
    token = _ACTIVE.set(context)
    try:
        yield context
    finally:
        _ACTIVE.reset(token)
        if context.cache is not None:
            context.cache.flush()
