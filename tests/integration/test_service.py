"""End-to-end service tests: HTTP, dedup, backpressure, failure, chaos.

The heavyweight acceptance test of the PR: an experiment submitted to a
chaos-ridden service — workers killed mid-simulation, resumed from
checkpoints — must produce a report byte-identical to the plain serial
``run_experiment`` call, with and without the hardware sanitizer.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.experiments.runner as runner
from repro.errors import WorkerFailedError
from repro.experiments.runner import run_experiment
from repro.service import (
    ChaosPolicy,
    ServiceClient,
    ServiceConfig,
    SimulationService,
    serve_in_thread,
)

#: Cheap grid experiment (runs parallel_simulate, ~0.1 s quick).
FAST_GRID = "ext-slotsize"


@pytest.fixture(scope="module")
def handle():
    with serve_in_thread(
        ServiceConfig(port=0, workers=2, queue_limit=4)
    ) as live:
        yield live


@pytest.fixture(scope="module")
def client(handle):
    return ServiceClient(handle.url)


class TestHttpSurface:
    def test_health(self, client):
        document = client.health()
        assert document == {"status": "ok", "workers": 2}

    def test_submit_wait_then_cache_hit(self, client):
        status, first = client.submit(FAST_GRID, wait=True)
        assert status == 200
        assert first["status"] == "done"
        assert first["source"] == "fresh"
        assert first["tasks_executed"] > 0
        assert "report" in first["result"]

        status, second = client.submit(FAST_GRID, wait=True)
        assert status == 200
        assert second["cache_hit"] is True
        assert second["tasks_executed"] == 0
        assert second["result"]["report"] == first["result"]["report"]

    def test_get_job_by_id(self, client):
        _, submitted = client.submit("table1", wait=True)
        status, fetched = client.job(submitted["id"])
        assert status == 200
        assert fetched["id"] == submitted["id"]
        assert fetched["status"] == "done"

    def test_unknown_job_404(self, client):
        status, document = client.job("job-999999")
        assert status == 404
        assert "error" in document

    def test_bad_experiment_400(self, client):
        status, document, _ = client.request(
            "POST", "/v1/jobs", {"experiment": "not-an-experiment"}
        )
        assert status == 400
        assert "unknown experiment" in document["error"]

    @pytest.mark.parametrize("field", ["wait", "quick"])
    def test_non_boolean_flag_400(self, client, field):
        # A truthy string must not pass for true: "false" would block.
        status, document, _ = client.request(
            "POST", "/v1/jobs", {"experiment": "figure1", field: "false"}
        )
        assert status == 400
        assert f"'{field}' must be a boolean" in document["error"]

    def test_non_json_body_400(self, client):
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            connection.request("POST", "/v1/jobs", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_unknown_route_404_and_bad_method_405(self, client):
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("DELETE", "/v1/jobs")[0] == 405
        # No HTTP request can kill a worker: there is no admin route.
        assert client.request("POST", "/v1/admin/kill-worker", {})[0] == 405

    def test_oversized_body_400(self, client):
        body = b" " * (64 * 1024 + 1)
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            connection.request("POST", "/v1/jobs", body=body)
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())
        finally:
            connection.close()

    def test_every_answer_is_json_and_closes(self, client):
        for method, path, payload in (
            ("GET", "/v1/health", None),
            ("GET", "/v1/stats", None),
            ("GET", "/v1/metrics", None),
            ("GET", "/v1/jobs/job-999999", None),
            ("GET", "/nope", None),
            ("POST", "/v1/jobs", {"experiment": "not-an-experiment"}),
            ("POST", "/v1/jobs", {"experiment": "table1", "wait": True}),
        ):
            _, _, headers = client.request(method, path, payload)
            assert headers["content-type"] == "application/json", path
            assert headers["connection"] == "close", path

    def test_no_wait_submission_polls_to_the_waited_report(self, client):
        status, submitted = client.submit("table2", seed=7, wait=False)
        assert status in (200, 202)
        deadline = time.monotonic() + 120.0
        polled = submitted
        while polled["status"] != "done":
            assert polled["status"] in ("queued", "running"), polled
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)
            status, polled = client.job(submitted["id"])
            assert status == 200
        status, waited = client.submit("table2", seed=7, wait=True)
        assert status == 200
        assert waited["result"]["report"] == polled["result"]["report"]

    def test_put_405(self, client):
        status, document, _ = client.request("PUT", "/v1/jobs", {})
        assert status == 405
        assert "error" in document

    def test_stats_and_metrics_documents(self, client):
        stats = client.stats()
        assert stats["queue_limit"] == 4
        assert "pool" in stats and "jobs" in stats
        document = client.metrics()
        # The document must be loadable by repro.telemetry's report path.
        from repro.telemetry.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge_state(document["metrics"])
        assert registry.value("service_jobs_total") > 0


class TestImports:
    def test_import_loads_no_event_loop(self):
        # The HTTP front end is the standard library's threaded server:
        # one thread per connection, no asyncio anywhere in the package.
        probe = "import sys, repro.service; print('asyncio' in sys.modules)"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestAdmissionControl:
    def test_queue_overflow_rejected_with_retry_after(self):
        # Service constructed but *not started*: the runner never drains,
        # so admission fills deterministically.
        service = SimulationService(
            ServiceConfig(port=0, workers=1, queue_limit=2)
        )
        try:
            specs = [{"experiment": "table2", "seed": seed} for seed in (1, 2, 3)]
            first = service.submit(specs[0])
            second = service.submit(specs[1])
            assert first.status == 202 and second.status == 202
            third = service.submit(specs[2])
            assert third.status == 429
            assert float(third.headers["Retry-After"]) > 0.0
            assert third.body["retry_after"] > 0.0
        finally:
            service.close()

    def test_coalescing_same_spec_shares_one_job(self):
        service = SimulationService(
            ServiceConfig(port=0, workers=1, queue_limit=2)
        )
        try:
            admitted = service.submit({"experiment": "table3"})
            coalesced = service.submit({"experiment": "table3"})
            assert admitted.status == 202
            assert coalesced.record is admitted.record
            assert admitted.record.requests == 2
            # Coalescing does not consume queue slots: a *different* spec
            # still fits in the second slot.
            other = service.submit({"experiment": "table4"})
            assert other.status == 202
        finally:
            service.close()


class TestFailedJob:
    """The one failure path: a structured ``failed`` job, then a retry."""

    def test_failure_is_reported_and_resubmit_retries(
        self, monkeypatch, tmp_path
    ):
        real = runner.run_experiment
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise WorkerFailedError(
                    "task gave up", task_id="t", attempts=4
                )
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_experiment", fail_once)
        with serve_in_thread(
            ServiceConfig(port=0, workers=1, data_dir=tmp_path)
        ) as live:
            client = ServiceClient(live.url)
            status, failed = client.submit(FAST_GRID, wait=True)
            assert status == 200
            assert failed["status"] == "failed"
            assert "result" not in failed
            assert failed["error"]["type"] == "WorkerFailedError"
            assert failed["error"]["message"] == "task gave up"
            assert failed["error"]["attempts"] == 4

            status, retried = client.submit(FAST_GRID, wait=True)
            assert status == 200
            assert retried["id"] != failed["id"]
            assert retried["status"] == "done"
            assert retried["source"] == "fresh"
            assert retried["tasks_executed"] > 0
            assert retried["result"]["report"] == real(
                FAST_GRID, quick=True
            ).render()
            jobs = client.stats()["jobs"]
            assert jobs["admitted"] == 2
            assert jobs["failed"] == 1
            assert jobs["fresh"] == 1
        assert len(calls) == 2


class TestChaosByteIdentity:
    """The PR's acceptance property, as a test."""

    def test_chaos_run_matches_serial_with_and_without_sanitizer(
        self, monkeypatch, tmp_path
    ):
        serial = run_experiment(FAST_GRID, quick=True).render()
        chaos = ChaosPolicy(
            kill_probability=0.6,
            kill_after_s=(0.0, 0.05),
            max_injections_per_task=2,
        )
        for sanitize in (False, True):
            if sanitize:
                monkeypatch.setenv("REPRO_SANITIZE", "1")
            else:
                monkeypatch.delenv("REPRO_SANITIZE", raising=False)
            with serve_in_thread(
                ServiceConfig(
                    port=0,
                    workers=2,
                    chaos=chaos,
                    checkpoint_every=100,
                    data_dir=tmp_path / f"sanitize-{sanitize}",
                )
            ) as live:
                status, document = ServiceClient(live.url).submit(
                    FAST_GRID, wait=True
                )
                assert status == 200, document
                assert document["status"] == "done"
                assert document["result"]["report"] == serial

    def test_killed_simulation_recovers_byte_identically(self, tmp_path):
        """Explicit mid-run worker kills: resume, not recompute, and the
        recovery is visible in the supervisor's counters."""
        serial = run_experiment("table6", quick=True).render()
        chaos = ChaosPolicy(
            kill_probability=0.5,
            kill_after_s=(0.05, 0.3),
            max_injections_per_task=2,
        )
        with serve_in_thread(
            ServiceConfig(
                port=0,
                workers=2,
                chaos=chaos,
                checkpoint_every=200,
                data_dir=tmp_path / "chaos",
            )
        ) as live:
            client = ServiceClient(live.url)
            # Only reference tasks checkpoint, so pin the backend.
            status, document = client.submit(
                "table6", wait=True, backend="reference"
            )
            assert status == 200, document
            assert document["result"]["report"] == serial
            pool_stats = client.stats()["pool"]
            assert pool_stats["worker_restarts"] >= 1
            assert pool_stats["tasks_retried"] >= 1

    def test_killed_numpy_batch_reruns_from_cycle_zero(self, tmp_path):
        """A numpy batch is one supervised task with no checkpoint: a
        killed attempt is retried from cycle 0, and the job document
        says its simulations ran on numpy."""
        serial = run_experiment("figure3", quick=True).render()
        chaos = ChaosPolicy(kill_probability=1.0, max_injections_per_task=2)
        with serve_in_thread(
            ServiceConfig(
                port=0,
                workers=2,
                chaos=chaos,
                checkpoint_every=100,
                data_dir=tmp_path,
            )
        ) as live:
            client = ServiceClient(live.url)
            status, document = client.submit("figure3", wait=True)
            assert status == 200, document
            assert document["result"]["report"] == serial
            # Quick figure3 is one batch of ten simulations: one task.
            assert document["tasks_executed"] == 1
            assert document["backends"] == {
                "simulations": {"numpy": 10},
                "fallbacks": {},
            }
            pool_stats = client.stats()["pool"]
            assert pool_stats["tasks_retried"] >= 1
            assert pool_stats["worker_restarts"] >= 1
            status, cached = client.submit("figure3", wait=True)
            assert cached["cache_hit"] is True
            assert cached["backends"] == {}
        assert list(tmp_path.glob("**/*.ckpt")) == []


class TestShutdown:
    def test_sigterm_closes_the_server_and_its_workers(self, tmp_path):
        from tests.service_smoke import child_pids, stop_server

        port_file = tmp_path / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "serve",
                "--port",
                "0",
                "--port-file",
                str(port_file),
                "--workers",
                "2",
                "--data-dir",
                str(tmp_path / "data"),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not (port_file.exists() and port_file.read_text().strip()):
                assert process.poll() is None, "server exited before binding"
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            assert len(child_pids(process.pid)) == 2
            assert stop_server(process) is None
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
