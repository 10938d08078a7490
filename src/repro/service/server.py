"""The simulation service: a threaded HTTP front end over a supervised farm.

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
  .SupervisedPool`: each experiment's simulation tasks — one per fused
  numpy batch, one per reference simulation — shard across worker
  processes under heartbeat monitoring, per-attempt deadlines, and
  bounded, backed-off retries.  A reference task resumes from its
  checkpoint; a numpy batch reruns from cycle 0.  The server process
  itself runs no simulation.
* **Failure** is reported, never papered over: every answer is a fresh
  simulation, an exact-key cache hit, or a ``failed`` job whose
  ``error`` names the exception type, message, attempts and resumable
  checkpoint (a task's retry budget spent, or the experiment raised).
  A failed job is unindexed, so resubmitting the spec retries it.

The HTTP layer is deliberately small: the standard library's
:class:`~http.server.ThreadingHTTPServer`, one thread per connection
that calls the service directly (``"wait": true`` blocks that thread
until the job finishes), JSON in and out, ``Connection: close``.  The
service's value is the supervision and the content addressing, not the
web framework.

Endpoints::

    POST /v1/jobs               {"experiment": "figure3", "quick": true,
                                 "seed": 1988, "wait": false}
    GET  /v1/jobs/<id>          job status / result document
    GET  /v1/health             liveness + worker count
    GET  /v1/stats              queue, pool, cache counters
    GET  /v1/metrics            repro.telemetry metrics document
"""

from __future__ import annotations

import json
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from queue import Empty, Full, Queue
from typing import Any, Callable

from repro.cache.store import ResultCache
from repro.errors import ConfigurationError
from repro.service.backoff import retry_after
from repro.service.chaos import ChaosPolicy
from repro.service.jobs import JOB_CODEC, JobRecord, JobSpec
from repro.service.supervisor import SupervisedPool, SupervisorConfig
from repro.telemetry.metrics import METRICS_VERSION, MetricsRegistry

__all__ = [
    "ServiceConfig",
    "ServiceHandle",
    "SimulationService",
    "serve",
    "serve_in_thread",
]

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
    """Protocol-agnostic core: admission, dedup, execution, failure.

    Thread-safety model: each HTTP connection's thread calls
    :meth:`submit` and the read endpoints directly; one dedicated runner
    thread executes jobs serially (each job's grid points parallelize
    across the supervised pool, so job-level concurrency is the pool's,
    not the runner's).  ``self._lock`` guards all shared job state; each
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
        self._lock = threading.RLock()
        self._by_id: dict[str, JobRecord] = {}
        self._by_key: dict[str, JobRecord] = {}
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
        """Admit, dedup or reject one job request."""
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
                    clone = self._adopt(spec, key, record.result, index=False)
                    self._count_job("memory")
                    return Response(200, record=clone, cache_hit=True)
                # In flight: this request rides the existing job.
                self._count_job("coalesced")
                return Response(200, record=record)
            stored = self._job_cache.get(key)
            if stored is not None:
                record = self._adopt(spec, key, stored)
                self._count_job("cached")
                return Response(200, record=record, cache_hit=True)
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

    def _adopt(
        self,
        spec: JobSpec,
        key: str,
        result: dict[str, Any],
        index: bool = True,
    ) -> JobRecord:
        """Register a ``cached`` record, born done (zero simulations).

        Memory hits are *not* indexed by key (``index=False``): the
        record already in the index keeps answering for the key.
        """
        record = JobRecord(
            spec=spec, key=key, status="done", source="cached", result=result
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
        return Response(
            200, body={"status": "ok", "workers": self.config.workers}
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
                cache=self._sim_cache,
                checkpoint_every=self.config.checkpoint_every,
                checkpoint_dir=self._checkpoint_dir,
                dispatcher=dispatcher,
                backend=spec.backend,
            )
        except Exception as exc:
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
        with self._lock:
            self._job_cache.put(record.key, "service", JOB_CODEC, payload)
            self._job_cache.flush()
            self._sim_cache.flush()
            record.result = payload
            record.status = "done"
            record.source = "fresh"
            record.tasks_executed = executed
            record.backends = result.backends
            record.job_seconds = time.monotonic() - started
            self._count_job("fresh")
        self.metrics.histogram("service_job_seconds").record(
            record.job_seconds
        )
        record.finished.set()


class _Handler(BaseHTTPRequestHandler):
    """One request per connection, answered on the connection's thread."""

    protocol_version = "HTTP/1.1"
    #: Seconds a client may take over each read of its request.
    timeout = 30.0
    server: _HttpServer

    def __getattr__(self, name: str) -> Callable[[], None]:
        # Every method reaches the router, which answers 405 or 404 for
        # the ones no route takes (the base class would answer 501).
        if name.startswith("do_"):
            return self._respond
        raise AttributeError(name)

    def _respond(self) -> None:
        try:
            status, document, headers = self._answer()
        except TimeoutError:
            raise  # a client too slow to send its body gets no answer
        except Exception as exc:  # pragma: no cover - last-resort guard
            status, document, headers = (
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                {},
            )
        self._write(status, document, headers)

    def _answer(self) -> tuple[int, dict[str, Any], dict[str, str]]:
        response = self._route()
        record = response.record
        if record is None:
            return response.status, response.body or {}, response.headers
        document = record.describe()
        if response.cache_hit:
            document["cache_hit"] = True
        status = 200 if record.finished.is_set() else response.status
        return status, document, response.headers

    def _route(self) -> Response:
        service = self.server.service
        method, target = self.command, self.path
        if method == "POST" and target == "/v1/jobs":
            try:
                payload = self._read_json()
            except ValueError as exc:
                return Response(400, body={"error": str(exc)})
            response = service.submit(payload)
            wait = isinstance(payload, dict) and payload.get("wait")
            if wait and response.record is not None:
                response.record.finished.wait()
            return response
        if method == "GET" and target.startswith("/v1/jobs/"):
            return service.get_job(target.removeprefix("/v1/jobs/"))
        if method == "GET" and target == "/v1/health":
            return service.health()
        if method == "GET" and target == "/v1/stats":
            return service.stats()
        if method == "GET" and target == "/v1/metrics":
            return service.metrics_document()
        if target.startswith("/v1/"):
            return Response(405, body={"error": f"{method} {target}"})
        return Response(404, body={"error": f"no route {target}"})

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if not 0 <= length <= _MAX_BODY:
            raise ValueError("request body too large")
        try:
            return json.loads(self.rfile.read(length).decode() or "{}")
        except ValueError:
            raise ValueError("body is not JSON") from None

    def _write(
        self, status: int, body: dict[str, Any], headers: dict[str, str]
    ) -> None:
        payload = json.dumps(body).encode()
        self.send_response_only(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.send_header("Connection", "close")
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """The base class's own refusals (a malformed request line, too
        many headers) answer JSON like every route."""
        # Even a request line too malformed to name a version gets a
        # status line and headers.
        self.request_version = self.protocol_version
        self._write(code, {"error": message or self.responses[code][0]}, {})

    def log_message(self, format: str, *args: Any) -> None:
        """No per-request logging."""


class _HttpServer(ThreadingHTTPServer):
    """A daemon thread per connection, each calling the service directly."""

    #: Listen backlog: a burst of connecting clients waits in the kernel
    #: instead of being refused (socketserver's default is 5).
    request_queue_size = 100

    def __init__(
        self, service: SimulationService, host: str, port: int
    ) -> None:
        self.service = service
        super().__init__((host, port), _Handler)

    def handle_error(self, request: Any, client_address: Any) -> None:
        """A client that hangs up mid-answer is not logged either."""


class ServiceHandle:
    """A service and its HTTP server, serving on a background thread."""

    def __init__(self, service: SimulationService, http: _HttpServer) -> None:
        self.service = service
        self.http = http
        self._thread = threading.Thread(
            target=http.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return int(self.http.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.service.config.host}:{self.port}"

    def close(self) -> None:
        self.http.shutdown()
        self.http.server_close()
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
    service = SimulationService(config)
    # Bind first, so that a taken port leaves no worker process behind.
    http = _HttpServer(service, config.host, config.port)
    return ServiceHandle(service.start(), http)


def serve(config: ServiceConfig | None = None, port_file: str | None = None) -> None:
    """Run the service in the foreground until SIGTERM or Ctrl-C.

    Either signal closes the service: the HTTP server stops, and the
    worker pool's processes are stopped and reaped before this returns.
    ``port_file`` (when given) receives the bound port as text — how a
    parent process discovers a ``port=0`` server, e.g. the CI smoke job.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    handle = serve_in_thread(config)
    if port_file:
        Path(port_file).write_text(f"{handle.port}\n")
    print(f"repro.service listening on {handle.url}")
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        handle.close()
