"""Process-pool map over independent simulation runs, with memoization.

Every cell of the paper's tables is one :class:`NetworkConfig` simulated
in isolation; all randomness derives from ``config.seed`` through named
substreams, so a run's result does not depend on which process executes
it or in what order.  ``parallel_simulate`` exploits that: it fans a list
of configs over a :class:`~concurrent.futures.ProcessPoolExecutor` and
returns results in input order, byte-identical to the serial loop.

The same purity makes the work *memoizable*.  When an experiment runs
under an active :mod:`repro.cache` context, :func:`parallel_map` keys
each unit of work by its canonical payload and the source-tree
fingerprint, serves hits straight from the content-addressed store, and
dispatches only the misses to the pool — a warm re-run of an unchanged
suite performs zero simulations.

``jobs=1`` (the default everywhere) bypasses the pool entirely — the
serial path runs the exact same ``simulate`` calls in the parent process,
which keeps single-job behaviour free of multiprocessing overhead and
makes the serial/parallel equivalence trivial to test.

A worker that dies (segfault, OOM kill, ``os._exit``) surfaces as a
:class:`~repro.errors.WorkerFailedError` rather than a hang or a raw
``BrokenProcessPool`` — unless the active context has checkpointing
configured, in which case the still-pending tasks are retried in a fresh
pool (after a deterministic-jitter backoff, budget bounded by
:data:`RESTART_POLICY`) and each replacement worker resumes its
simulation from the dead worker's last on-disk checkpoint instead of
starting over.  When the budget runs out the error names the task, its
attempt count and the checkpoint a manual retry could resume from.

A service-grade alternative exists for the pool itself: when the active
:class:`~repro.cache.runtime.CacheContext` carries a ``dispatcher``, all
execution is delegated to it — :mod:`repro.service` installs its
supervised worker pool this way, so the same experiment code runs under
heartbeat monitoring and per-task deadlines without changing here.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.cache import runtime
from repro.cache.keys import cache_key, canonical_json
from repro.utils.digest import digest_json
from repro.errors import ConfigurationError, WorkerFailedError
from repro.utils.backoff import BackoffPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.network.metrics import SimulationResult
    from repro.network.simulator import NetworkConfig

__all__ = [
    "RESTART_POLICY",
    "parallel_map",
    "parallel_simulate",
    "resolve_jobs",
    "reset_simulated_cycles",
    "simulated_cycles",
]

#: Network cycles simulated through this module since the last reset
#: (parent-process view; the perf harness reads this to report
#: simulated-cycles-per-second).  Cache hits perform no simulation and
#: are not counted.
_cycles_simulated = 0

#: Restart budget and delays for pool recovery after a worker death.
#: Shared shape with :mod:`repro.service` (which uses its own seconds-
#: tuned instance): exponential with deterministic jitter so several
#: resuming pools do not stampede the disk in lockstep.  ``max_attempts``
#: counts attempts per task: the first run plus two pool restarts —
#: matching the historical ``_POOL_RETRIES = 2``.
RESTART_POLICY = BackoffPolicy(
    base=0.05, factor=2.0, cap_multiple=8.0, max_attempts=3, jitter=0.5
)


def simulated_cycles() -> int:
    """Network cycles routed through :func:`parallel_simulate` so far."""
    return _cycles_simulated


def reset_simulated_cycles() -> None:
    """Zero the cycle counter (the harness calls this per experiment)."""
    global _cycles_simulated
    _cycles_simulated = 0


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a jobs request: ``None``/``0`` means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")
    return jobs


def _task_checkpoint(item: Any) -> str | None:
    """The checkpoint path a task item carries, when it carries one.

    :func:`parallel_simulate` encodes checkpointed work as a 5-tuple
    ending in the checkpoint path; anything else is uncheckpointed.
    """
    if isinstance(item, tuple) and len(item) == 5 and isinstance(item[4], str):
        return item[4]
    return None


def _dispatch(
    fn: Callable[[Any], Any],
    items: list[Any],
    jobs: int,
    resumable: bool,
) -> list[Any]:
    """Execute every item, in input order, with bounded pool restarts.

    When ``resumable`` (the active context has checkpointing configured),
    a worker death starts a fresh pool after a :data:`RESTART_POLICY`
    backoff; completed results are kept and only the still-pending items
    are resubmitted (their workers resume from on-disk checkpoints when
    the tasks carry them).  A task that exhausts the policy's attempt
    budget — or any death when ``resumable`` is false, preserving the
    uncached fail-fast behaviour — raises :class:`WorkerFailedError`
    naming the task, its attempt count and its last checkpoint.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    results: list[Any] = [None] * len(items)
    pending = list(range(len(items)))
    attempts = dict.fromkeys(pending, 0)
    while True:
        for index in pending:
            attempts[index] += 1
        try:
            with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
                futures = {pool.submit(fn, items[i]): i for i in pending}
                for future in as_completed(futures):
                    index = futures[future]
                    results[index] = future.result()
                    pending.remove(index)
            return results
        except BrokenProcessPool as exc:
            # Every still-pending task was (or may have been) in flight
            # on the dead pool; all of them burn one attempt.
            budget = RESTART_POLICY.max_attempts if resumable else 1
            worst = max(pending, key=lambda i: attempts[i])
            if attempts[worst] >= budget:
                checkpoint = _task_checkpoint(items[worst])
                detail = (
                    f"resumable from checkpoint {checkpoint}"
                    if checkpoint is not None
                    else "rerun with jobs=1 to debug in-process"
                )
                raise WorkerFailedError(
                    f"simulation task {worst} lost its worker process "
                    f"{attempts[worst]} time(s) (crashed or killed); {detail}",
                    task_id=worst,
                    attempts=attempts[worst],
                    checkpoint=checkpoint,
                ) from exc
            time.sleep(RESTART_POLICY.delay(attempts[worst], key="pool"))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    jobs: int | None = 1,
    *,
    codec: str | None = None,
    payloads: Sequence[Any] | None = None,
    on_executed: Callable[[int], None] | None = None,
) -> list[Any]:
    """``[fn(item) for item in items]``, memoized and optionally pooled.

    ``fn`` and every item must be picklable (``fn`` defined at module top
    level).  Results come back in input order.  Exceptions raised *inside*
    a worker propagate unchanged; a worker process that dies outright is
    reported as :class:`WorkerFailedError` (or retried with backoff, when
    the active cache context has checkpointing configured).  A context
    carrying a ``dispatcher`` delegates all execution — pooling, retries
    and supervision included — to it.

    ``codec`` opts the call into the result cache: when a
    :mod:`repro.cache` context is active, each unit of work is keyed by
    the matching entry of ``payloads`` (a JSON-able description;
    defaults to the items themselves) and hits skip execution entirely.
    Cached results must never be ``None`` — ``None`` is the miss
    sentinel.  ``on_executed`` receives the number of items actually
    executed (for the harness's cycle accounting).
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    context = runtime.active()
    resumable = context is not None and context.checkpointing
    dispatcher = context.dispatcher if context is not None else None

    def execute(work: list[Any]) -> list[Any]:
        if dispatcher is not None:
            return dispatcher(fn, work)
        return _dispatch(fn, work, jobs, resumable)

    cache = context.cache if context is not None and codec is not None else None
    if cache is None or context is None:
        if on_executed is not None:
            on_executed(len(items))
        return execute(items)
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


def _simulate_task(task: tuple[Any, ...]) -> "SimulationResult":
    """Pool worker: run one simulation, resumable when checkpointed.

    Accepts ``(config, warmup, measure)`` or the checkpointed form
    ``(config, warmup, measure, checkpoint_every, checkpoint_path)``.
    A checkpointed task whose file already exists belonged to a worker
    that died mid-run: the replacement resumes from the checkpoint — a
    bit-identical continuation — instead of starting over.  The file is
    removed once the run completes.
    """
    # Imported here (cached after the first call) so this module can be
    # imported by repro.network.saturation without a circular import.
    from repro.network.simulator import resume_run, simulate

    if len(task) == 3:
        config, warmup_cycles, measure_cycles = task
        return simulate(config, warmup_cycles, measure_cycles)
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
        )
    checkpoint.unlink(missing_ok=True)
    return result


def _resolve_backends(
    configs: Sequence["NetworkConfig"],
    backend: str | None,
    context: Any,
) -> list[str]:
    """Per-config backend resolution under the ambient instrumentation.

    The sanitizer and telemetry are enabled through the environment, and
    checkpointing through the active cache context — exactly the signals
    each worker's :func:`~repro.network.simulator.simulate` call would
    see — so resolving here keeps the dispatch decision and the worker
    behaviour consistent.
    """
    from repro.instrument import env_instrumentation
    from repro.kernel.base import resolve_backend

    env = env_instrumentation()
    checkpointing = (
        context is not None
        and context.checkpoint_every is not None
        and context.checkpoint_dir is not None
    )
    return [
        resolve_backend(
            config,
            backend,
            sanitize=env.sanitize,
            trace=env.tracing,
            checkpoint=checkpointing,
        )
        for config in configs
    ]


def _mixed_backend_simulate(
    configs: list["NetworkConfig"],
    payloads: list[dict[str, Any]],
    backends: list[str],
    warmup_cycles: int,
    measure_cycles: int,
    jobs: int | None,
) -> list["SimulationResult"]:
    """Route a grid whose configs resolved to different backends.

    The numpy subset is served from the cache where possible, with the
    misses fused into batch kernels in this process; the reference
    subset re-enters :func:`parallel_simulate` with the backend pinned,
    keeping its pooling/checkpointing/caching behaviour untouched.
    """
    global _cycles_simulated
    context = runtime.active()
    cache = context.cache if context is not None else None
    results: list[Any] = [None] * len(configs)
    numpy_indices = [i for i, b in enumerate(backends) if b == "numpy"]
    reference_indices = [i for i, b in enumerate(backends) if b != "numpy"]
    keys: dict[int, Any] = {}
    missed = numpy_indices
    if cache is not None and context is not None:
        keys = {
            index: cache_key(
                context.experiment, "simulation-result", payloads[index]
            )
            for index in numpy_indices
        }
        missed = []
        for index in numpy_indices:
            hit = cache.get(keys[index])
            if hit is None:
                missed.append(index)
            else:
                results[index] = hit
    if missed:
        _cycles_simulated += (warmup_cycles + measure_cycles) * len(missed)
        fresh = _numpy_group_simulate(
            [configs[i] for i in missed], warmup_cycles, measure_cycles
        )
        for index, result in zip(missed, fresh):
            if cache is not None and context is not None:
                cache.put(
                    keys[index],
                    context.experiment,
                    "simulation-result",
                    result,
                )
            results[index] = result
    if reference_indices:
        reference_results = parallel_simulate(
            [configs[i] for i in reference_indices],
            warmup_cycles,
            measure_cycles,
            jobs=jobs,
            backend="reference",
        )
        for index, result in zip(reference_indices, reference_results):
            results[index] = result
    return results


def _numpy_group_simulate(
    configs: Sequence["NetworkConfig"],
    warmup_cycles: int,
    measure_cycles: int,
) -> list["SimulationResult"]:
    """Run configs on the numpy backend, fused into batch groups.

    Structurally identical configs (:func:`~repro.kernel.numpy_kernel
    .batch_group_key`) share one struct-of-arrays kernel, so the whole
    group advances per cycle with the same array ops — that fusion, not
    a process pool, is the numpy backend's parallelism.  Results come
    back in input order, byte-identical to per-config runs.
    """
    from repro.kernel.numpy_kernel import NumpyKernel, batch_group_key

    groups: dict[tuple[Any, ...], list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(batch_group_key(config), []).append(index)
    results: list[Any] = [None] * len(configs)
    for indices in groups.values():
        kernel = NumpyKernel.batch([configs[i] for i in indices])
        for index, result in zip(
            indices, kernel.run_batch(warmup_cycles, measure_cycles)
        ):
            results[index] = result
    return results


def parallel_simulate(
    configs: Sequence["NetworkConfig"],
    warmup_cycles: int = 2000,
    measure_cycles: int = 10000,
    jobs: int | None = 1,
    backend: str | None = None,
) -> list["SimulationResult"]:
    """Simulate every config, in input order, over ``jobs`` processes.

    Per-config seeding makes the result list byte-identical for any
    ``jobs`` value; ``jobs=1`` is a plain serial loop in this process.
    Under an active cache context, previously computed configs are
    served from the store (and only cache misses count toward
    :func:`simulated_cycles`); with checkpointing configured, each
    simulation periodically checkpoints into the context's directory so
    a dead worker's replacement resumes instead of restarting.

    ``backend`` forces a simulation backend for the whole grid; ``None``
    honours the ``REPRO_BACKEND`` preference (see
    :func:`repro.kernel.base.resolve_backend`).  Configs that resolve to
    the numpy backend are fused into struct-of-arrays batch kernels and
    run in this process — vectorization replaces the pool — while the
    rest (unsupported configs under a soft preference, or everything
    under active instrumentation) take the standard reference path.
    Results are byte-identical either way, so the two routes share one
    cache namespace: a result computed by either backend is a hit for
    both.
    """
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
    backends = _resolve_backends(configs, backend, context)
    if "numpy" in backends:
        return _mixed_backend_simulate(
            configs,
            payloads,
            backends,
            warmup_cycles,
            measure_cycles,
            jobs,
        )
    tasks: list[tuple[Any, ...]]
    if (
        context is not None
        and context.checkpoint_every is not None
        and context.checkpoint_dir is not None
    ):
        directory = context.checkpoint_dir
        tasks = []
        for config, payload in zip(configs, payloads):
            stamp = digest_json(payload)
            tasks.append(
                (
                    config,
                    warmup_cycles,
                    measure_cycles,
                    context.checkpoint_every,
                    str(directory / f"{stamp[:32]}.ckpt"),
                )
            )
    else:
        tasks = [
            (config, warmup_cycles, measure_cycles) for config in configs
        ]

    def count_cycles(executed: int) -> None:
        global _cycles_simulated
        _cycles_simulated += (warmup_cycles + measure_cycles) * executed

    return parallel_map(
        _simulate_task,
        tasks,
        jobs=jobs,
        codec="simulation-result",
        payloads=payloads,
        on_executed=count_cycles,
    )
