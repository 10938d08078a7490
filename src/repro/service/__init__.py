"""Fault-tolerant simulation job service.

An asyncio HTTP/JSON front end (:mod:`repro.service.server`) over a
supervised farm of simulation worker processes
(:mod:`repro.service.supervisor`).  Experiment requests are
content-addressed and deduplicated against :mod:`repro.cache`; worker
deaths are detected by heartbeat and resumed from checkpoints under a
bounded, backed-off retry budget (:mod:`repro.service.backoff`); a
circuit breaker (:mod:`repro.service.breaker`) degrades answers down a
marked ladder (:mod:`repro.service.jobs`) instead of refusing; and a
seeded chaos mode (:mod:`repro.service.chaos`) makes all of that
testable deterministically.  ``python -m repro.service --help``; the
service's load benchmark is the ``service-zipf`` workload of
``benchmarks/suite``.
"""

from repro.service.breaker import CircuitBreaker
from repro.service.chaos import ChaosPolicy
from repro.service.client import ServiceClient
from repro.service.jobs import DEGRADATION_LADDER, JobRecord, JobSpec
from repro.service.server import (
    ServiceConfig,
    ServiceHandle,
    SimulationService,
    serve,
    serve_in_thread,
)
from repro.service.supervisor import SupervisedPool, SupervisorConfig

__all__ = [
    "ChaosPolicy",
    "CircuitBreaker",
    "DEGRADATION_LADDER",
    "JobRecord",
    "JobSpec",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHandle",
    "SimulationService",
    "SupervisedPool",
    "SupervisorConfig",
    "serve",
    "serve_in_thread",
]
