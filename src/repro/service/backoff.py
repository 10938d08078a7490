"""Service-tuned retry and backpressure schedules.

One place for every delay the service hands out, all derived from the
shared :class:`repro.utils.backoff.BackoffPolicy` (the same machinery
:mod:`repro.faults.transport` uses for link-level retransmits — one
backoff idiom across the repo, tuned per layer):

* :data:`TASK_RETRY` — per-task retry schedule of the supervised worker
  pool, and so of every multi-process map in the repo: how long a task
  killed with its worker waits before its next attempt, and how many
  attempts it gets before the pool gives up with a structured
  :class:`~repro.errors.WorkerFailedError`.
* :data:`CLIENT_RETRY` — what a well-behaved client should do between
  attempts after a 429/503; :class:`~repro.service.client.ServiceClient`
  follows it.
* :func:`retry_after` — the ``Retry-After`` value the server attaches to
  a rejection, scaled by how deep the admission queue already is.
"""

from __future__ import annotations

from repro.utils.backoff import BackoffPolicy

__all__ = ["CLIENT_RETRY", "TASK_RETRY", "retry_after"]

#: Supervised-pool task retries: 4 attempts, 0.1 s base, ×2 growth,
#: capped at 1.6 s, with deterministic ±50 % jitter so several tasks
#: re-queued by one worker death do not thunder back in lockstep.
TASK_RETRY = BackoffPolicy(
    base=0.1, factor=2.0, cap_multiple=16.0, max_attempts=4, jitter=0.5
)

#: Client-side schedule after a 429/503: 0.2 s base, ×2, capped at 3.2 s,
#: up to 6 attempts.  Jitter here desynchronizes *clients*, the one place
#: where everyone backing off identically would defeat the purpose.
CLIENT_RETRY = BackoffPolicy(
    base=0.2, factor=2.0, cap_multiple=16.0, max_attempts=6, jitter=0.5
)

#: Base Retry-After of an admission rejection, seconds.
_ADMISSION_BASE = 0.5


def retry_after(queue_depth: int, queue_limit: int) -> float:
    """Retry-After (seconds) for a 429, scaled by queue pressure.

    An empty-ish queue suggests a transient spike (come back soon); a
    queue at its limit means sustained overload (back off harder).  The
    value is deterministic — per-client jitter is the client's job
    (:data:`CLIENT_RETRY`), not the server's.
    """
    if queue_limit <= 0:
        return _ADMISSION_BASE
    pressure = min(1.0, max(0.0, queue_depth / queue_limit))
    return round(_ADMISSION_BASE * (1.0 + 3.0 * pressure), 3)
