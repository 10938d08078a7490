"""The simulation service: asyncio HTTP front end over a supervised farm.

``python -m repro.service serve`` exposes the experiment suite as a
long-running job service.  The moving parts, and where the robustness
lives:

* **Admission** is a bounded queue.  A full queue answers ``429`` with a
  pressure-scaled ``Retry-After`` (:func:`repro.service.backoff
  .retry_after`) instead of queueing unboundedly — latency stays bounded
  because the backlog is.
* **Deduplication** happens at admission: specs are content-addressed
  (:meth:`~repro.service.jobs.JobSpec.key`), so a request for a result
  the store already holds is answered without simulating, and concurrent
  requests for the same spec *coalesce* onto one in-flight job.
* **Execution** runs on a :class:`~repro.service.supervisor
  .SupervisedPool`: each experiment's grid points shard across worker
  processes under heartbeat monitoring, per-attempt deadlines, and
  bounded, backed-off retries that resume from checkpoints.
* **Degradation** is governed by a :class:`~repro.service.breaker
  .CircuitBreaker` over job outcomes.  While it is open the service
  never refuses: it walks the ladder of :mod:`repro.service.jobs` —
  exact cache hit, stale-but-marked result, millisecond analytic
  Markov prediction — and tags every rung below ``cached`` with
  ``degraded: true``.

The HTTP layer is deliberately small (stdlib asyncio, HTTP/1.1,
``Connection: close``): the service's value is the supervision and the
content addressing, not the web framework.

Endpoints::

    POST /v1/jobs               {"experiment": "figure3", "quick": true,
                                 "seed": 1988, "wait": false}
    GET  /v1/jobs/<id>          job status / result document
    GET  /v1/health             liveness + breaker state
    GET  /v1/stats              queue, pool, breaker, cache counters
    GET  /v1/metrics            repro.telemetry metrics document
"""

from __future__ import annotations

import asyncio
import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty, Full, Queue
from typing import Any

from repro.cache.store import ResultCache
from repro.errors import ConfigurationError
from repro.service.backoff import retry_after
from repro.service.breaker import CircuitBreaker
from repro.service.chaos import ChaosPolicy
from repro.service.jobs import (
    JOB_CODEC,
    JobRecord,
    JobSpec,
    analytic_prediction,
)
from repro.service.supervisor import SupervisedPool, SupervisorConfig
from repro.telemetry.metrics import METRICS_VERSION, MetricsRegistry

__all__ = [
    "ServiceConfig",
    "ServiceHandle",
    "SimulationService",
    "serve",
    "serve_in_thread",
]

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}

#: Upper bound on request body size (64 KiB is generous for job specs).
_MAX_BODY = 64 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service needs to run (all knobs have sane defaults)."""

    host: str = "127.0.0.1"
    #: TCP port; 0 asks the OS for a free one (see ``ServiceHandle.port``).
    port: int = 0
    #: Worker processes in the supervised pool.
    workers: int = 2
    #: Bounded admission queue: jobs accepted but not yet running.
    queue_limit: int = 8
    #: Data directory (caches + checkpoints); ``None`` = private tempdir.
    data_dir: str | Path | None = None
    #: Cycles between simulation checkpoints (resume granularity).
    checkpoint_every: int = 500
    #: Per-attempt wall-clock deadline for one grid point, seconds.
    task_deadline: float = 120.0
    #: Consecutive job failures that trip the breaker, and its cooldown.
    breaker_threshold: int = 3
    breaker_cooldown: float = 10.0
    #: Optional seeded fault injection for the worker pool.
    chaos: ChaosPolicy | None = None

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")


@dataclass
class Response:
    """What the service core hands the HTTP layer for one request."""

    status: int
    body: dict[str, Any] | None = None
    record: JobRecord | None = None
    headers: dict[str, str] = field(default_factory=dict)
    #: Whether this answer cost zero simulations (memory or store hit).
    cache_hit: bool = False


class SimulationService:
    """Protocol-agnostic core: admission, dedup, execution, degradation.

    Thread-safety model: HTTP handlers call :meth:`submit` and the read
    endpoints from executor threads; one dedicated runner thread executes
    jobs serially (each job's grid points parallelize across the
    supervised pool, so job-level concurrency is the pool's, not the
    runner's).  ``self._lock`` guards all shared job state; each
    :class:`ResultCache` is touched by exactly one side (jobs: under the
    lock; simulations: runner thread only).
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self._tempdir: tempfile.TemporaryDirectory[str] | None = None
        if self.config.data_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-service-")
            data_dir = Path(self._tempdir.name)
        else:
            data_dir = Path(self.config.data_dir)
        self._checkpoint_dir = data_dir / "checkpoints"
        self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._job_cache = ResultCache(data_dir / "jobs")
        self._sim_cache = ResultCache(data_dir / "simulations")
        self.pool = SupervisedPool(
            SupervisorConfig(
                workers=self.config.workers,
                task_deadline=self.config.task_deadline,
            ),
            chaos=self.config.chaos,
            metrics=self.metrics,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self._lock = threading.RLock()
        self._by_id: dict[str, JobRecord] = {}
        self._by_key: dict[str, JobRecord] = {}
        self._stale: dict[str, dict[str, Any]] = {}
        self._queue: Queue[JobRecord | None] = Queue(
            maxsize=self.config.queue_limit
        )
        self._closing = threading.Event()
        self._runner = threading.Thread(
            target=self._run_jobs, name="repro-job-runner", daemon=True
        )
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "SimulationService":
        if not self._started:
            self._started = True
            self.pool.start()
            self._runner.start()
        return self

    def close(self) -> None:
        if not self._started:
            return
        self._closing.set()
        self._runner.join(timeout=30.0)
        self.pool.stop()
        with self._lock:
            self._job_cache.flush()
        self._sim_cache.flush()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    # ------------------------------------------------------------------
    # Request paths (called from HTTP handler threads)
    # ------------------------------------------------------------------

    def submit(self, payload: Any) -> Response:
        """Admit, dedup, degrade or reject one job request."""
        try:
            spec = JobSpec.from_payload(payload)
        except ConfigurationError as exc:
            self._count_job("invalid")
            return Response(400, body={"error": str(exc)})
        key = spec.key()
        with self._lock:
            record = self._by_key.get(key)
            if record is not None:
                record.requests += 1
                if record.status == "done" and record.result is not None:
                    # Answered from memory: a zero-simulation cache hit
                    # (the response record shares the stored payload but
                    # reports this request's cost, which is nothing).
                    clone = self._adopt(
                        spec,
                        key,
                        record.result,
                        status="done",
                        source="cached",
                        index=False,
                    )
                    self._count_job("memory")
                    return Response(200, record=clone, cache_hit=True)
                # In flight: this request rides the existing job.
                self._count_job("coalesced")
                return Response(200, record=record)
            stored = self._job_cache.get(key)
            if stored is not None:
                record = self._adopt(
                    spec, key, stored, status="done", source="cached"
                )
                self._count_job("cached")
                return Response(200, record=record, cache_hit=True)
            if not self.breaker.allow():
                return self._degraded(spec)
            record = JobRecord(spec=spec, key=key)
            try:
                self._queue.put_nowait(record)
            except Full:
                self._count_job("rejected")
                delay = retry_after(
                    self._queue.qsize(), self.config.queue_limit
                )
                return Response(
                    429,
                    body={
                        "error": "admission queue full",
                        "retry_after": delay,
                    },
                    headers={"Retry-After": f"{delay}"},
                )
            self._by_key[key] = record
            self._by_id[record.id] = record
            self._count_job("admitted")
            return Response(202, record=record)

    def _degraded(self, spec: JobSpec) -> Response:
        """Breaker open: answer from the ladder, never refuse."""
        headers = {"Retry-After": f"{round(self.breaker.retry_after, 3)}"}
        stale = self._stale.get(spec.stale_key())
        if stale is not None:
            result = dict(stale)
            result["degraded"] = True
            result["mode"] = "stale"
            source = "stale"
        else:
            result = {
                "experiment": spec.experiment,
                "prediction": analytic_prediction(spec),
                "degraded": True,
                "mode": "analytic",
            }
            source = "analytic"
        record = self._adopt(
            spec, spec.key(), result, status="done", source=source, index=False
        )
        self._count_job(source)
        return Response(200, record=record, headers=headers, cache_hit=True)

    def _adopt(
        self,
        spec: JobSpec,
        key: str,
        result: dict[str, Any],
        status: str,
        source: str,
        index: bool = True,
    ) -> JobRecord:
        """Register a record that is born terminal (hit or degraded).

        Degraded records are *not* indexed by key (``index=False``): they
        must never satisfy a later request that fresh capacity could.
        """
        record = JobRecord(
            spec=spec, key=key, status=status, source=source, result=result
        )
        record.finished.set()
        self._by_id[record.id] = record
        if index:
            self._by_key[key] = record
        return record

    def get_job(self, job_id: str) -> Response:
        with self._lock:
            record = self._by_id.get(job_id)
        if record is None:
            return Response(404, body={"error": f"no such job {job_id!r}"})
        return Response(200, record=record)

    def health(self) -> Response:
        breaker = self.breaker.snapshot()
        status = "ok" if breaker["state"] == CircuitBreaker.CLOSED else "degraded"
        return Response(
            200,
            body={
                "status": status,
                "breaker": breaker["state"],
                "workers": self.config.workers,
            },
        )

    def stats(self) -> Response:
        with self._lock:
            jobs = {
                counter.labels.get("outcome", "?"): counter.value
                for counter in self.metrics.counters("service_jobs_total")
            }
            job_cache = self._job_cache.stats()
        return Response(
            200,
            body={
                "jobs": jobs,
                "queue_depth": self._queue.qsize(),
                "queue_limit": self.config.queue_limit,
                "breaker": self.breaker.snapshot(),
                "pool": self.pool.stats(),
                "job_cache": {
                    "entries": job_cache.entries,
                    "hits": job_cache.hits,
                    "misses": job_cache.misses,
                },
                "chaos_enabled": (
                    self.config.chaos is not None and self.config.chaos.enabled
                ),
            },
        )

    def metrics_document(self) -> Response:
        """A ``repro.telemetry``-compatible metrics document."""
        with self._lock:
            snapshot = self.metrics.snapshot_state()
        return Response(
            200,
            body={
                "format": METRICS_VERSION,
                "tag": "service",
                "cycles": 0,
                "events_emitted": 0,
                "events_dropped": 0,
                "metrics": snapshot,
            },
        )

    def _count_job(self, outcome: str) -> None:
        self.metrics.counter("service_jobs_total", outcome=outcome).inc()

    # ------------------------------------------------------------------
    # Job runner (dedicated thread)
    # ------------------------------------------------------------------

    def _run_jobs(self) -> None:
        while not self._closing.is_set():
            try:
                record = self._queue.get(timeout=0.1)
            except Empty:
                continue
            if record is None:
                return
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        from repro.experiments.runner import run_experiment

        with self._lock:
            record.status = "running"
        started = time.monotonic()
        executed = 0

        def dispatcher(fn: Any, items: list[Any]) -> list[Any]:
            nonlocal executed
            executed += len(items)
            return self.pool.map(fn, items)

        spec = record.spec
        try:
            result = run_experiment(
                spec.experiment,
                quick=spec.quick,
                seed=spec.seed,
                jobs=1,
                cache=self._sim_cache,
                checkpoint_every=self.config.checkpoint_every,
                checkpoint_dir=self._checkpoint_dir,
                dispatcher=dispatcher,
                backend=spec.backend,
            )
        except Exception as exc:
            self.breaker.record_failure()
            with self._lock:
                record.status = "failed"
                record.tasks_executed = executed
                record.job_seconds = time.monotonic() - started
                record.error = {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "attempts": getattr(exc, "attempts", None),
                    "checkpoint": getattr(exc, "checkpoint", None),
                }
                # Unindex so a later submission may retry the experiment.
                self._by_key.pop(record.key, None)
                self._count_job("failed")
            record.finished.set()
            return
        # The stored payload carries only deterministic fields: the
        # report must be byte-identical across fresh, cached and
        # post-chaos-recovery answers (timing lives on the record).
        payload = {
            "experiment": spec.experiment,
            "quick": spec.quick,
            "seed": spec.seed,
            "report": result.render(),
        }
        self.breaker.record_success()
        with self._lock:
            self._job_cache.put(record.key, "service", JOB_CODEC, payload)
            self._job_cache.flush()
            self._sim_cache.flush()
            self._stale[spec.stale_key()] = dict(payload)
            record.result = payload
            record.status = "done"
            record.source = "fresh"
            record.tasks_executed = executed
            record.job_seconds = time.monotonic() - started
            self._count_job("fresh")
        self.metrics.histogram("service_job_seconds").record(
            record.job_seconds
        )
        record.finished.set()


class HttpServer:
    """Minimal stdlib HTTP/1.1 front end for a :class:`SimulationService`."""

    def __init__(self, service: SimulationService, host: str, port: int):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await asyncio.wait_for(
                self._read_request(reader), timeout=30.0
            )
            if request is None:
                return
            method, target, body = request
            response, wait = await self._route(method, target, body)
            if response.record is not None:
                if wait and not response.record.finished.is_set():
                    await asyncio.get_running_loop().run_in_executor(
                        None, response.record.finished.wait
                    )
                document = response.record.describe()
                if response.cache_hit:
                    document["cache_hit"] = True
                status = (
                    200 if response.record.finished.is_set() else response.status
                )
                self._write(writer, status, document, response.headers)
            else:
                self._write(
                    writer, response.status, response.body or {}, response.headers
                )
            await writer.drain()
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass
        except ValueError as exc:
            self._write(writer, 400, {"error": str(exc)}, {})
        except Exception as exc:  # pragma: no cover - last-resort guard
            self._write(writer, 500, {"error": f"{type(exc).__name__}: {exc}"}, {})
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> tuple[Response, bool]:
        service = self.service
        loop = asyncio.get_running_loop()
        if method == "POST" and target == "/v1/jobs":
            try:
                payload = json.loads(body.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError):
                return Response(400, body={"error": "body is not JSON"}), False
            wait = isinstance(payload, dict) and bool(payload.get("wait"))
            response = await loop.run_in_executor(None, service.submit, payload)
            return response, wait
        if method == "GET" and target.startswith("/v1/jobs/"):
            job_id = target.removeprefix("/v1/jobs/")
            return await loop.run_in_executor(None, service.get_job, job_id), False
        if method == "GET" and target == "/v1/health":
            return service.health(), False
        if method == "GET" and target == "/v1/stats":
            return await loop.run_in_executor(None, service.stats), False
        if method == "GET" and target == "/v1/metrics":
            return (
                await loop.run_in_executor(None, service.metrics_document),
                False,
            )
        if target.startswith("/v1/"):
            return Response(405, body={"error": f"{method} {target}"}), False
        return Response(404, body={"error": f"no route {target}"}), False

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bytes] | None:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise ValueError("malformed request line")
        method, target, _version = parts
        length = 0
        for _ in range(100):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        else:
            raise ValueError("too many headers")
        if length > _MAX_BODY:
            raise ValueError("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, body

    @staticmethod
    def _write(
        writer: asyncio.StreamWriter,
        status: int,
        body: dict[str, Any],
        headers: dict[str, str],
    ) -> None:
        payload = json.dumps(body).encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + payload)


class ServiceHandle:
    """A service + HTTP server running on a background event loop."""

    def __init__(
        self,
        service: SimulationService,
        http: HttpServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self.http = http
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.http.port

    @property
    def url(self) -> str:
        return f"http://{self.http.host}:{self.http.port}"

    def close(self) -> None:
        future = asyncio.run_coroutine_threadsafe(self.http.stop(), self._loop)
        future.result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self.service.close()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def serve_in_thread(config: ServiceConfig | None = None) -> ServiceHandle:
    """Start a full service on a daemon thread; returns a live handle.

    The benchmark suite and the integration tests use this to run client
    and server in one process without blocking the caller.
    """
    config = config or ServiceConfig()
    service = SimulationService(config).start()
    http = HttpServer(service, config.host, config.port)
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    future = asyncio.run_coroutine_threadsafe(http.start(), loop)
    future.result(timeout=10.0)
    return ServiceHandle(service, http, loop, thread)


def serve(config: ServiceConfig | None = None, port_file: str | None = None) -> None:
    """Run the service in the foreground until interrupted.

    ``port_file`` (when given) receives the bound port as text — how a
    parent process discovers a ``port=0`` server, e.g. the CI smoke job.
    """
    handle = serve_in_thread(config)
    if port_file:
        Path(port_file).write_text(f"{handle.port}\n")
    print(f"repro.service listening on {handle.url}")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
