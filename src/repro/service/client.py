"""HTTP client for the simulation service.

:class:`ServiceClient` is a tiny stdlib (:mod:`http.client`) wrapper —
one connection per request, matching the server's ``Connection: close``
discipline — that honest clients, the tests and the benchmark suite's
``service-zipf`` load generator share.  On a 429 it backs off per
:data:`repro.service.backoff.CLIENT_RETRY` (deterministic jitter from the
caller's RNG stream key) before retrying.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any
from urllib.parse import urlsplit

from repro.errors import ConfigurationError
from repro.service.backoff import CLIENT_RETRY

__all__ = ["ServiceClient"]


class ServiceClient:
    """Minimal JSON-over-HTTP client for one service base URL."""

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ConfigurationError(
                f"service URL must be http://host:port, got {base_url!r}"
            )
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout

    def request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
    ) -> tuple[int, dict[str, Any], dict[str, str]]:
        """One request; returns (status, JSON body, lowercased headers)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            document = json.loads(raw.decode()) if raw else {}
            header_map = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, document, header_map
        finally:
            connection.close()

    # -- convenience endpoints ------------------------------------------

    def submit(
        self,
        experiment: str,
        quick: bool = True,
        seed: int = 1988,
        wait: bool = True,
        retry_key: str | None = None,
        backend: str | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Submit a job; on 429, back off per ``CLIENT_RETRY`` and retry.

        ``retry_key`` seeds the deterministic retry jitter (defaults to
        the spec itself).  ``backend`` forces the job's simulation
        backend (results are byte-identical either way, so jobs
        differing only in backend still coalesce server-side).
        """
        payload: dict[str, Any] = {
            "experiment": experiment,
            "quick": quick,
            "seed": seed,
            "wait": wait,
        }
        if backend is not None:
            payload["backend"] = backend
        key = retry_key or f"{experiment}/{seed}"
        attempt = 0
        while True:
            attempt += 1
            status, document, headers = self.request(
                "POST", "/v1/jobs", payload
            )
            if status != 429 or CLIENT_RETRY.exhausted(attempt):
                return status, document
            hinted = float(headers.get("retry-after", 0.0) or 0.0)
            time.sleep(max(hinted, CLIENT_RETRY.delay(attempt, key=key)))

    def job(self, job_id: str) -> tuple[int, dict[str, Any]]:
        status, document, _ = self.request("GET", f"/v1/jobs/{job_id}")
        return status, document

    def health(self) -> dict[str, Any]:
        return self.request("GET", "/v1/health")[1]

    def stats(self) -> dict[str, Any]:
        return self.request("GET", "/v1/stats")[1]

    def metrics(self) -> dict[str, Any]:
        return self.request("GET", "/v1/metrics")[1]
