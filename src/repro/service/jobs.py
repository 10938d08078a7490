"""Job specs and job records.

A *job* is one experiment request — the unit a client submits, the
service deduplicates, and a worker pool executes.  The spec is
content-addressed with the same :func:`repro.cache.keys.cache_key`
machinery the simulation cache uses, which buys the service its core
scaling property for free: a million users asking for ``figure3`` hash
to one key, so they cost one simulation (and the key folds in the source
fingerprint, so a code change can never serve stale results as fresh).

A finished job was answered one of two ways, recorded as its
``source``: ``fresh`` (a simulation actually ran for it) or ``cached``
(an exact-key hit, bit-identical to what a fresh run would produce
under the current source tree).  A job that could not be simulated ends
``failed`` with a structured ``error``; there is no third kind of
answer.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.cache.keys import cache_key
from repro.errors import ConfigurationError

__all__ = ["JOB_CODEC", "JobRecord", "JobSpec"]

#: Cache codec under which completed job payloads are stored (plain JSON).
JOB_CODEC = "json"


@dataclass(frozen=True)
class JobSpec:
    """One experiment request: which experiment, at what fidelity, what seed.

    ``backend`` optionally forces a simulation backend for the job
    (``"reference"``/``"numpy"``); ``None`` lets the worker's ambient
    ``REPRO_BACKEND`` preference apply.  Because both backends produce
    byte-identical results, the backend is deliberately **excluded**
    from the spec's canonical payload — a numpy job and a reference job
    for the same experiment coalesce to one cache entry.
    """

    experiment: str
    quick: bool = True
    seed: int = 1988
    backend: str | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Validate a client JSON payload into a spec.

        Raises :class:`ConfigurationError` on anything malformed — the
        server maps that to a 400, never a 500.
        """
        from repro.experiments.runner import EXPERIMENTS
        from repro.kernel.base import normalize_backend

        if not isinstance(payload, dict):
            raise ConfigurationError("job payload must be a JSON object")
        experiment = payload.get("experiment")
        if not isinstance(experiment, str):
            raise ConfigurationError("job payload needs an 'experiment' name")
        experiment = experiment.lower()
        if experiment not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {experiment!r}; "
                f"choose from {sorted(EXPERIMENTS)}"
            )
        quick = payload.get("quick", True)
        if not isinstance(quick, bool):
            raise ConfigurationError("'quick' must be a boolean")
        seed = payload.get("seed", 1988)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ConfigurationError("'seed' must be an integer")
        backend = payload.get("backend")
        if backend is not None:
            if not isinstance(backend, str):
                raise ConfigurationError("'backend' must be a string")
            backend = normalize_backend(backend)
        unknown = set(payload) - {
            "experiment",
            "quick",
            "seed",
            "backend",
            "wait",
        }
        if unknown:
            raise ConfigurationError(
                f"unknown job fields: {sorted(unknown)}"
            )
        return cls(
            experiment=experiment, quick=quick, seed=seed, backend=backend
        )

    def payload(self) -> dict[str, Any]:
        """The canonical JSON-able description of this spec.

        The backend is not part of the canonical payload: results are
        byte-identical across backends, so requests differing only in
        backend deduplicate to one job and one cache entry.
        """
        return {
            "experiment": self.experiment,
            "quick": self.quick,
            "seed": self.seed,
        }

    def key(self) -> str:
        """Content address of the *result* this spec denotes.

        Folds in the source fingerprint (via :func:`cache_key`), so the
        key changes whenever the simulator changes — an exact-key hit is
        always bit-identical to a fresh run.
        """
        return cache_key("service", JOB_CODEC, self.payload())


_JOB_IDS = itertools.count(1)


@dataclass
class JobRecord:
    """Server-side state of one admitted job (shared by coalesced clients)."""

    spec: JobSpec
    key: str
    id: str = field(default_factory=lambda: f"job-{next(_JOB_IDS)}")
    status: str = "queued"  # queued | running | done | failed
    #: How the result was produced: fresh | cached.
    source: str = "fresh"
    #: Number of requests answered by this record (1 + coalesced ones).
    requests: int = 1
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    #: Simulation tasks actually dispatched to the pool (0 on cache hits).
    tasks_executed: int = 0
    job_seconds: float = 0.0
    #: Set once the job reaches a terminal state (done/failed).
    finished: threading.Event = field(default_factory=threading.Event)

    def describe(self) -> dict[str, Any]:
        """The JSON document clients see for this job."""
        document: dict[str, Any] = {
            "id": self.id,
            "spec": self.spec.payload(),
            "status": self.status,
            "requests": self.requests,
        }
        if self.status in ("done", "failed"):
            document["source"] = self.source
            document["tasks_executed"] = self.tasks_executed
            document["job_seconds"] = self.job_seconds
        if self.result is not None:
            document["result"] = self.result
        if self.error is not None:
            document["error"] = self.error
        return document
