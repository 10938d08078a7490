"""Memoized map over independent simulation runs, on the run's pool.

Every cell of the paper's tables is one :class:`NetworkConfig` simulated
in isolation; all randomness derives from ``config.seed`` through named
substreams, so a run's result does not depend on which process executes
it or in what order.  ``parallel_simulate`` exploits that: it hands a
list of configs to the run's executor and returns results in input
order, byte-identical to the serial loop.

The same purity makes the work *memoizable*.  When an experiment runs
under an active :mod:`repro.cache` context, :func:`parallel_map` keys
each unit of work by its canonical payload and the source-tree
fingerprint, serves hits straight from the content-addressed store, and
executes only the misses — a warm re-run of an unchanged suite performs
zero simulations.

How the misses execute is a property of the run, not of the map.  The
active :class:`~repro.cache.runtime.CacheContext` may carry a
``dispatcher`` ``(fn, items) -> results``: the experiment runner
installs the ``map`` of one
:class:`~repro.service.supervisor.SupervisedPool` per ``jobs > 1`` run,
and the simulation service installs its long-lived pool, shared by all
concurrent jobs.  Without one, the misses run serially in this process,
free of multiprocessing overhead.  This module never builds a pool.

Both simulation backends go through that one dispatch: a fused numpy
batch is one task, exactly like one reference simulation, so on a pool
it gets the same deadline, chaos draws and retries.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any, cast

from repro.cache import runtime
from repro.cache.keys import cache_key
from repro.utils.digest import digest_json
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.metrics import SimulationResult
    from repro.network.simulator import NetworkConfig

__all__ = [
    "parallel_map",
    "parallel_simulate",
    "reset_simulated_cycles",
    "simulated_cycles",
]

#: Network cycles simulated through this module since the last reset
#: (parent-process view; the benchmark suite reads this to report
#: simulated-cycles-per-second).  Cache hits perform no simulation and
#: are not counted.
_cycles_simulated = 0


def simulated_cycles() -> int:
    """Network cycles routed through :func:`parallel_simulate` so far."""
    return _cycles_simulated


def reset_simulated_cycles() -> None:
    """Zero the cycle counter (the benchmark calls this per experiment)."""
    global _cycles_simulated
    _cycles_simulated = 0


def _cycle_counter(cycles_per_run: int) -> Callable[[int], None]:
    """An ``on_executed`` hook adding ``cycles_per_run`` per executed run."""

    def count(executed: int) -> None:
        global _cycles_simulated
        _cycles_simulated += cycles_per_run * executed

    return count


def _memoized(
    execute: Callable[[list[Any]], list[Any]],
    items: list[Any],
    codec: str | None,
    payloads: Sequence[Any] | None,
    on_executed: Callable[[int], None] | None,
) -> list[Any]:
    """``execute(items)``, with hits served from the active cache.

    Without an active cache (or without a ``codec``) every item is
    executed.  Otherwise each item is keyed by its entry of ``payloads``
    (defaulting to the item itself), only the misses reach ``execute``
    — one call, in input order — and their results are stored.
    ``on_executed`` receives the number of items actually executed.
    """
    context = runtime.active()
    if context is None or context.cache is None or codec is None:
        if on_executed is not None:
            on_executed(len(items))
        return execute(items)
    cache = context.cache
    described = list(payloads) if payloads is not None else items
    if len(described) != len(items):
        raise ConfigurationError(
            f"parallel_map got {len(items)} items but "
            f"{len(described)} payloads"
        )
    keys = [cache_key(context.experiment, codec, p) for p in described]
    results: list[Any] = [None] * len(items)
    missed: list[int] = []
    for index, key in enumerate(keys):
        hit = cache.get(key)
        if hit is None:
            missed.append(index)
        else:
            results[index] = hit
    if on_executed is not None:
        on_executed(len(missed))
    if missed:
        fresh = execute([items[i] for i in missed])
        for index, result in zip(missed, fresh):
            cache.put(keys[index], context.experiment, codec, result)
            results[index] = result
    return results


def _dispatch(fn: Callable[[Any], Any], work: list[Any]) -> list[Any]:
    """``[fn(item) for item in work]`` on the active dispatcher, if any."""
    context = runtime.active()
    if context is not None and context.dispatcher is not None:
        return context.dispatcher(fn, work)
    return [fn(item) for item in work]


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    codec: str | None = None,
    payloads: Sequence[Any] | None = None,
    on_executed: Callable[[int], None] | None = None,
) -> list[Any]:
    """``[fn(item) for item in items]``, memoized, on the run's executor.

    ``fn`` and every item must be picklable (``fn`` defined at module top
    level), since the active context's ``dispatcher`` may ship them to
    worker processes.  Results come back in input order.  Exceptions
    raised *inside* a worker propagate unchanged; on the supervised pool
    a worker process that dies outright is retried under
    :data:`~repro.service.backoff.TASK_RETRY` and reported as
    :class:`~repro.errors.WorkerFailedError` once the budget is spent.

    ``codec`` opts the call into the result cache: when a
    :mod:`repro.cache` context is active, each unit of work is keyed by
    the matching entry of ``payloads`` (a JSON-able description;
    defaults to the items themselves) and hits skip execution entirely.
    Cached results must never be ``None`` — ``None`` is the miss
    sentinel.  ``on_executed`` receives the number of items actually
    executed (for the :func:`simulated_cycles` accounting).
    """
    return _memoized(
        lambda work: _dispatch(fn, work),
        list(items),
        codec,
        payloads,
        on_executed,
    )


def _simulate_task(task: tuple[Any, ...]) -> list["SimulationResult"]:
    """Pool worker: run one task of :func:`parallel_simulate`.

    A numpy task ``(configs, warmup, measure)`` carries a tuple of
    structurally identical configs (one :func:`~repro.kernel.base
    .batch_group_key`) and runs them as one fused struct-of-arrays
    kernel; it writes no checkpoint, so a retried attempt reruns from
    cycle 0.  A reference task is ``(config, warmup, measure)`` or the
    checkpointed ``(config, warmup, measure, checkpoint_every,
    checkpoint_path)``.  A checkpointed task whose file already exists
    belonged to a worker that died mid-run: the replacement resumes from
    the checkpoint — a bit-identical continuation — instead of starting
    over.  The file is removed once the run completes.  Either way the
    results come back as a list, in the task's config order.
    """
    # Imported here (cached after the first call) so this module can be
    # imported by repro.network.saturation without a circular import.
    from repro.network.simulator import resume_run, simulate

    if isinstance(task[0], tuple):
        from repro.kernel.numpy_kernel import NumpyKernel

        configs, warmup_cycles, measure_cycles = task
        return NumpyKernel.batch(list(configs)).run_batch(
            warmup_cycles, measure_cycles
        )
    if len(task) == 3:
        config, warmup_cycles, measure_cycles = task
        return [
            simulate(config, warmup_cycles, measure_cycles, backend="reference")
        ]
    config, warmup_cycles, measure_cycles, every, path = task
    checkpoint = Path(path)
    if checkpoint.exists():
        result = resume_run(checkpoint)
    else:
        result = simulate(
            config,
            warmup_cycles,
            measure_cycles,
            checkpoint_every=every,
            checkpoint_path=checkpoint,
            backend="reference",
        )
    checkpoint.unlink(missing_ok=True)
    return [result]


def _choose_backends(
    configs: Sequence["NetworkConfig"], backend: str | None
) -> list[tuple[str, str | None]]:
    """Per-config ``(backend, fallback reason)`` under the ambient
    instrumentation.

    The sanitizer and telemetry are enabled through the environment —
    exactly the signals each worker's
    :func:`~repro.network.simulator.simulate` call would see — so
    resolving here keeps the dispatch decision and the worker behaviour
    consistent.  Checkpointing is no reason to fall back: a numpy batch
    task is retried from cycle 0 instead.
    """
    from repro.instrument import env_instrumentation
    from repro.kernel.base import choose_backend

    env = env_instrumentation()
    return [
        choose_backend(
            config, backend, sanitize=env.sanitize, trace=env.tracing
        )
        for config in configs
    ]


def parallel_simulate(
    configs: Sequence["NetworkConfig"],
    warmup_cycles: int = 2000,
    measure_cycles: int = 10000,
    backend: str | None = None,
) -> list["SimulationResult"]:
    """Simulate every config, in input order, on the run's executor.

    Per-config seeding makes the result list byte-identical however the
    run executes it: serially, on the runner's pool or on the service's.
    Under an active cache context, previously computed configs are
    served from the store (and only cache misses count toward
    :func:`simulated_cycles`).

    ``backend`` forces a simulation backend for the whole grid; ``None``
    prefers the numpy default, softly (see
    :func:`repro.kernel.base.choose_backend`).  The misses
    become one task list for one dispatch: one task per numpy
    :func:`~repro.kernel.base.batch_group_key` group, fused into a
    struct-of-arrays kernel, and one task per reference config.  With
    checkpointing configured, each reference task periodically
    checkpoints into the context's directory so a dead worker's
    replacement resumes instead of restarting; a numpy batch has no
    checkpoint and reruns from cycle 0.  Results are byte-identical
    either way, so the backends share one cache namespace: a result
    computed by either is a hit for both.  The active context counts
    the executed simulations per backend and every fallback reason
    (:attr:`~repro.cache.runtime.CacheContext.backends`).
    """
    from repro.kernel.base import batch_group_key

    configs = list(configs)
    payloads = [
        {
            "config": config.to_state(),
            "warmup": warmup_cycles,
            "measure": measure_cycles,
        }
        for config in configs
    ]
    context = runtime.active()
    if backend is None and context is not None:
        # The runner's --backend flag arrives ambiently, like the cache:
        # experiments stay backend-oblivious (see CacheContext.backend).
        backend = context.backend
    choices = _choose_backends(configs, backend)
    checkpoint: tuple[Any, Path] | None = None
    if context is not None and context.checkpointing:
        # ``checkpointing`` guarantees the directory is set.
        checkpoint = (
            context.checkpoint_every,
            cast(Path, context.checkpoint_dir),
        )

    def task(indices: list[int]) -> tuple[Any, ...]:
        first = indices[0]
        if choices[first][0] == "numpy":
            batch = tuple(configs[i] for i in indices)
            return (batch, warmup_cycles, measure_cycles)
        if checkpoint is None:
            return (configs[first], warmup_cycles, measure_cycles)
        every, directory = checkpoint
        stamp = digest_json(payloads[first])
        return (
            configs[first],
            warmup_cycles,
            measure_cycles,
            every,
            str(directory / f"{stamp[:32]}.ckpt"),
        )

    def execute(missed: list[int]) -> list[Any]:
        groups: dict[tuple[Any, ...], list[int]] = {}
        for i in missed:
            chosen, fallback = choices[i]
            key = (
                ("numpy", *batch_group_key(configs[i]))
                if chosen == "numpy"
                else ("reference", i)
            )
            groups.setdefault(key, []).append(i)
            if context is not None:
                context.backends[chosen] += 1
                if fallback is not None:
                    context.fallbacks[fallback] += 1
        tasks = [task(indices) for indices in groups.values()]
        results: dict[int, Any] = {}
        for indices, outputs in zip(
            groups.values(), _dispatch(_simulate_task, tasks)
        ):
            results.update(zip(indices, outputs))
        return [results[i] for i in missed]

    return _memoized(
        execute,
        list(range(len(configs))),
        "simulation-result",
        payloads,
        _cycle_counter(warmup_cycles + measure_cycles),
    )
