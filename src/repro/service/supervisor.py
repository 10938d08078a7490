"""Supervised worker-process pool: heartbeats, deadlines, bounded retries.

The repo's one worker pool.  :func:`repro.perf.parallel.parallel_map`
runs every ``jobs > 1`` map on a short-lived :class:`SupervisedPool`,
and :mod:`repro.service` shares one long-lived pool across its
concurrent jobs.  The pool keeps *named* worker processes under
continuous supervision:

* each worker carries a **heartbeat thread** writing into shared memory;
  a stale heartbeat (wedged process) or a dead PID is detected within a
  supervision tick, not at the end of the batch;
* each task attempt may carry a **deadline**; an attempt that overruns
  it has its worker killed and the task retried;
* every worker death is retried under
  :data:`~repro.service.backoff.TASK_RETRY` (deterministic jitter,
  bounded budget).  A task that exhausts the budget fails with a
  structured :class:`~repro.errors.WorkerFailedError` naming the task,
  its attempt count and its checkpoint — the contract is *deliver or
  say so*, never hang;
* a replacement attempt of a checkpointed simulation task resumes from
  the dead worker's last on-disk checkpoint (the task functions of
  :mod:`repro.perf.parallel` already resume when their checkpoint file
  exists), so a kill costs the cycles since the last checkpoint, not the
  whole run; an uncheckpointed task reruns from cycle 0, which is safe
  because every task is a pure function of its seeded config;
* a seeded :class:`~repro.service.chaos.ChaosPolicy` can inject worker
  kills per attempt — reproducibly.

The pool is thread-safe: multiple threads may :meth:`map` concurrently
(the simulation service shards several jobs' grid points over one pool).
Every queue is per-worker and recreated on respawn, so a worker killed
mid-write can corrupt at most its own channel, never the pool.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import time
import traceback
import multiprocessing as mp
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError, WorkerFailedError
from repro.service.backoff import TASK_RETRY
from repro.service.chaos import ChaosPolicy
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.backoff import BackoffPolicy

__all__ = ["SupervisedPool", "SupervisorConfig"]

#: Exit code of a chaos-injected worker kill (mirrors SIGKILL's 128+9).
CHAOS_EXIT_CODE = 137

#: ``multiprocessing`` start method: fork where the platform has it.
START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class SupervisorConfig:
    """Tuning of the supervision loop (all times in seconds)."""

    workers: int = 2
    #: Cadence of each worker's heartbeat writes.
    heartbeat_interval: float = 0.1
    #: Heartbeat age beyond which a live-looking process counts as wedged.
    heartbeat_timeout: float = 3.0
    #: Per-attempt wall-clock budget (``None`` disables deadlines).
    task_deadline: float | None = 120.0
    #: Retry schedule and budget of every task.
    retry: BackoffPolicy = TASK_RETRY
    #: Supervision loop cadence.
    tick: float = 0.02

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("pool needs at least one worker")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ConfigurationError("heartbeat times must be positive")
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ConfigurationError("task_deadline must be positive")
        if self.tick <= 0:
            raise ConfigurationError("tick must be positive")


def _encode_error(exc: BaseException) -> tuple[str, bytes | str, str]:
    """Make an exception transportable: pickled when possible, else text."""
    text = traceback.format_exc()
    try:
        return ("pickle", pickle.dumps(exc), text)
    except Exception:
        return ("text", f"{type(exc).__name__}: {exc}", text)


def _decode_error(payload: tuple[str, bytes | str, str]) -> BaseException:
    kind, data, text = payload
    if kind == "pickle":
        try:
            exc = pickle.loads(data)  # type: ignore[arg-type]
            if isinstance(exc, BaseException):
                return exc
        except Exception:
            pass
        data = "worker exception (unpicklable)"
    return WorkerFailedError(f"{data}\n--- worker traceback ---\n{text}")


def _worker_main(
    slot: int,
    inbox: Any,
    results: Any,
    heartbeats: Any,
    interval: float,
) -> None:
    """Worker process body: beat, take a task, run it, post the outcome."""
    stop_beating = threading.Event()

    def _beat() -> None:
        while not stop_beating.is_set():
            heartbeats[slot] = time.monotonic()
            stop_beating.wait(interval)

    threading.Thread(target=_beat, daemon=True).start()
    while True:
        envelope = inbox.get()
        if envelope is None:
            return
        task_uid, fn, item, inject = envelope
        kill_timer: threading.Timer | None = None
        kill_after = inject.get("kill_after_s")
        if kill_after is not None:
            # A chaos kill is a hard process death — os._exit skips all
            # cleanup, exactly like SIGKILL or an OOM kill would.
            kill_timer = threading.Timer(
                kill_after, os._exit, args=(CHAOS_EXIT_CODE,)
            )
            kill_timer.daemon = True
            kill_timer.start()
        try:
            value = fn(item)
        except BaseException as exc:
            if kill_timer is not None:
                kill_timer.cancel()
            results.put(("error", task_uid, _encode_error(exc)))
        else:
            if kill_timer is not None:
                kill_timer.cancel()
            results.put(("ok", task_uid, value))


class _Task:
    """Parent-side state of one unit of work."""

    __slots__ = (
        "uid",
        "key",
        "fn",
        "item",
        "state",
        "attempts",
        "ready_at",
        "assigned_slot",
        "assigned_at",
        "result",
        "error",
        "first_death",
        "finished",
    )

    def __init__(self, uid: int, key: str, fn: Callable[[Any], Any], item: Any):
        self.uid = uid
        self.key = key
        self.fn = fn
        self.item = item
        self.state = "ready"  # ready | waiting | running | done | failed
        self.attempts = 0
        self.ready_at = 0.0
        self.assigned_slot: int | None = None
        self.assigned_at = 0.0
        self.result: Any = None
        self.error: BaseException | None = None
        self.first_death: float | None = None
        self.finished = threading.Event()


class _Worker:
    """Parent-side handle of one worker slot."""

    __slots__ = ("slot", "process", "inbox", "results", "busy_uid")

    def __init__(self) -> None:
        self.slot = 0
        self.process: Any = None
        self.inbox: Any = None
        self.results: Any = None
        self.busy_uid: int | None = None


class SupervisedPool:
    """A supervised, chaos-injectable pool of worker processes.

    Use as a context manager, or call :meth:`start`/:meth:`stop`
    explicitly.  :meth:`map` is the work interface and is safe to call
    from several threads at once; its signature matches the
    ``dispatcher`` hook of :class:`repro.cache.runtime.CacheContext`, so
    ``pool.map`` can be installed directly as an experiment dispatcher.
    """

    def __init__(
        self,
        config: SupervisorConfig | None = None,
        chaos: ChaosPolicy | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.chaos = chaos
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._ctx = mp.get_context(START_METHOD)
        self._heartbeats = self._ctx.Array("d", self.config.workers, lock=False)
        self._lock = threading.RLock()
        self._tasks: dict[int, _Task] = {}
        self._ready: deque[int] = deque()
        self._waiting: list[int] = []
        self._workers: list[_Worker] = []
        self._uids = itertools.count(1)
        self._running = False
        self._thread: threading.Thread | None = None
        # Metric handles cached once (hot path: one tick every ~20 ms).
        self._m_completed = self.metrics.counter(
            "service_tasks_total", outcome="completed"
        )
        self._m_retried = self.metrics.counter(
            "service_tasks_total", outcome="retried"
        )
        self._m_failed = self.metrics.counter(
            "service_tasks_total", outcome="failed"
        )
        self._m_task_seconds = self.metrics.histogram("service_task_seconds")
        self._m_recovery = self.metrics.histogram("service_recovery_seconds")
        self._m_busy = self.metrics.gauge("service_workers_busy")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SupervisedPool":
        """Spawn every worker and the supervision thread."""
        with self._lock:
            if self._running:
                return self
            self._running = True
            self._workers = []
            for slot in range(self.config.workers):
                worker = _Worker()
                worker.slot = slot
                self._workers.append(worker)
                self._spawn(worker)
        self._thread = threading.Thread(
            target=self._supervise, name="repro-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop supervision and terminate every worker."""
        with self._lock:
            if not self._running:
                return
            self._running = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for worker in self._workers:
            process = worker.process
            if process is None:
                continue
            try:
                worker.inbox.put(None)
            except Exception:
                pass
            process.join(timeout=0.5)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)

    def __enter__(self) -> "SupervisedPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Work interface
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: list[Any]) -> list[Any]:
        """Run ``fn`` over ``items`` on the pool; results in input order.

        Blocks until every item completed or permanently failed.  An
        exception raised *inside* ``fn`` is deterministic and propagates
        unchanged without retry; worker deaths, wedges and deadline
        overruns are retried per the configured
        :class:`~repro.utils.backoff.BackoffPolicy` and surface as
        :class:`WorkerFailedError` only once the budget is exhausted.
        """
        if not self._running:
            raise ConfigurationError("SupervisedPool.map before start()")
        items = list(items)
        tasks: list[_Task] = []
        with self._lock:
            for item in items:
                uid = next(self._uids)
                key = f"task-{uid}"
                task = _Task(uid, key, fn, item)
                self._tasks[uid] = task
                self._ready.append(uid)
                tasks.append(task)
        for task in tasks:
            task.finished.wait()
        results = []
        first_error: BaseException | None = None
        with self._lock:
            for task in tasks:
                if task.error is not None and first_error is None:
                    first_error = task.error
                results.append(task.result)
                del self._tasks[task.uid]
        if first_error is not None:
            raise first_error
        return results

    def kill_worker(self, slot: int | None = None) -> int | None:
        """Hard-kill one worker (prefer a busy one); returns its slot.

        An external crash on demand: the supervision loop detects the
        death, retries the victim's task from its checkpoint, and
        respawns the slot — exactly as for any other crash.
        """
        with self._lock:
            candidates = [w for w in self._workers if w.busy_uid is not None]
            pool = candidates or self._workers
            if slot is not None:
                pool = [w for w in self._workers if w.slot == slot]
            if not pool:
                return None
            victim = pool[0]
            if victim.process is None or not victim.process.is_alive():
                return None
            victim.process.kill()
            return victim.slot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters and queue depths for the service's ``/v1/stats``."""
        with self._lock:
            busy = sum(1 for w in self._workers if w.busy_uid is not None)
            restarts = sum(
                c.value
                for c in self.metrics.counters("service_worker_restarts_total")
            )
            recovery = self._m_recovery.stats
            return {
                "workers": self.config.workers,
                "busy_workers": busy,
                "tasks_ready": len(self._ready),
                "tasks_waiting": len(self._waiting),
                "tasks_completed": self._m_completed.value,
                "tasks_retried": self._m_retried.value,
                "tasks_failed": self._m_failed.value,
                "worker_restarts": restarts,
                "recoveries": recovery.count,
                "mean_recovery_seconds": (
                    recovery.mean if recovery.count else 0.0
                ),
            }

    @property
    def saturated(self) -> bool:
        """Whether every worker is busy and work is queued behind them."""
        with self._lock:
            busy = all(w.busy_uid is not None for w in self._workers)
            return busy and bool(self._ready or self._waiting)

    # ------------------------------------------------------------------
    # Supervision internals (all called with the lock held unless noted)
    # ------------------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        """(Re)create one worker slot with fresh, private queues."""
        worker.inbox = self._ctx.Queue()
        worker.results = self._ctx.Queue()
        self._heartbeats[worker.slot] = time.monotonic()
        worker.busy_uid = None
        worker.process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker.slot,
                worker.inbox,
                worker.results,
                self._heartbeats,
                self.config.heartbeat_interval,
            ),
            daemon=True,
        )
        worker.process.start()

    def _supervise(self) -> None:
        """Supervision loop: drain results, detect deaths, assign work."""
        while True:
            with self._lock:
                if not self._running:
                    return
                self._drain_results()
                self._check_workers()
                self._check_deadlines()
                self._promote_waiting()
                self._assign_ready()
                self._m_busy.set(
                    sum(1 for w in self._workers if w.busy_uid is not None)
                )
            time.sleep(self.config.tick)

    def _drain_results(self) -> None:
        for worker in self._workers:
            while True:
                try:
                    message = worker.results.get_nowait()
                except Exception:
                    # Empty queue — or a channel corrupted by a worker
                    # killed mid-write; the liveness check that follows
                    # will catch the latter via the dead PID.
                    break
                kind, uid, payload = message
                task = self._tasks.get(uid)
                if task is None or task.state != "running":
                    continue  # stale duplicate from a superseded attempt
                if task.assigned_slot != worker.slot:
                    continue
                worker.busy_uid = None
                if kind == "ok":
                    self._complete(task, payload)
                else:
                    # A deterministic in-task exception: no retry.
                    task.state = "failed"
                    task.error = _decode_error(payload)
                    self._m_failed.inc()
                    task.finished.set()

    def _complete(self, task: _Task, value: Any) -> None:
        task.state = "done"
        task.result = value
        self._m_completed.inc()
        now = time.monotonic()
        self._m_task_seconds.record(now - task.assigned_at)
        if task.first_death is not None:
            self._m_recovery.record(now - task.first_death)
        task.finished.set()

    def _check_workers(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            process = worker.process
            if process is None:
                continue
            if not process.is_alive():
                self._worker_died(worker, reason="died")
                continue
            stale = now - self._heartbeats[worker.slot]
            if stale > self.config.heartbeat_timeout:
                process.kill()
                self._worker_died(worker, reason="heartbeat")

    def _check_deadlines(self) -> None:
        deadline = self.config.task_deadline
        if deadline is None:
            return
        now = time.monotonic()
        for worker in self._workers:
            uid = worker.busy_uid
            if uid is None:
                continue
            task = self._tasks.get(uid)
            if task is None or task.state != "running":
                continue
            if now - task.assigned_at > deadline:
                self.metrics.counter(
                    "service_deadline_expirations_total"
                ).inc()
                worker.process.kill()
                self._worker_died(worker, reason="deadline")

    def _worker_died(self, worker: _Worker, reason: str) -> None:
        """Requeue (or fail) the victim's task; respawn the slot."""
        self.metrics.counter(
            "service_worker_restarts_total", reason=reason
        ).inc()
        uid = worker.busy_uid
        if uid is not None:
            task = self._tasks.get(uid)
            if task is not None and task.state == "running":
                self._attempt_failed(task)
        self._spawn(worker)

    def _attempt_failed(self, task: _Task) -> None:
        now = time.monotonic()
        if task.first_death is None:
            task.first_death = now
        policy = self.config.retry
        if policy.exhausted(task.attempts):
            task.state = "failed"
            task.error = WorkerFailedError(
                f"task {task.key} lost its worker {task.attempts} time(s) "
                f"and exhausted the retry budget of {policy.max_attempts}",
                task_id=task.key,
                attempts=task.attempts,
                checkpoint=self._checkpoint_of(task),
            )
            self._m_failed.inc()
            task.finished.set()
            return
        task.state = "waiting"
        task.assigned_slot = None
        task.ready_at = now + policy.delay(task.attempts, key=task.key)
        self._waiting.append(task.uid)
        self._m_retried.inc()

    @staticmethod
    def _checkpoint_of(task: _Task) -> str | None:
        item = task.item
        if (
            isinstance(item, tuple)
            and len(item) == 5
            and isinstance(item[4], str)
        ):
            return item[4]
        return None

    def _promote_waiting(self) -> None:
        if not self._waiting:
            return
        now = time.monotonic()
        still_waiting: list[int] = []
        for uid in self._waiting:
            task = self._tasks.get(uid)
            if task is None:
                continue
            if task.ready_at <= now:
                task.state = "ready"
                self._ready.append(uid)
            else:
                still_waiting.append(uid)
        self._waiting = still_waiting

    def _assign_ready(self) -> None:
        for worker in self._workers:
            if not self._ready:
                return
            if worker.busy_uid is not None:
                continue
            if worker.process is None or not worker.process.is_alive():
                continue
            uid = self._ready.popleft()
            task = self._tasks.get(uid)
            if task is None:
                continue
            task.attempts += 1
            task.state = "running"
            task.assigned_slot = worker.slot
            task.assigned_at = time.monotonic()
            inject: dict[str, Any] = {}
            if self.chaos is not None:
                inject = self.chaos.draw(task.key, task.attempts)
                if inject:
                    self.metrics.counter(
                        "service_chaos_injections_total", kind="kill_after"
                    ).inc()
            worker.busy_uid = uid
            worker.inbox.put((uid, task.fn, task.item, inject))
