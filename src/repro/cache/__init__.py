"""Content-addressed cache for per-configuration simulation results.

A full experiment suite is a map over hundreds of independent
simulations, each a pure function of its configuration, seed and cycle
counts.  This package memoizes that function on disk: every unit of work
dispatched through :func:`repro.perf.parallel.parallel_map` is addressed
by a SHA-256 key over its experiment name, its canonical payload (the
full config dict plus cycle counts) and a fingerprint of the ``repro``
source tree, so a re-run of an unchanged suite collapses to index
lookups — and any edit to the simulator invalidates every key at once,
making a stale hit structurally impossible.

Layout on disk (default root ``.repro-cache/``)::

    .repro-cache/
        index.json              # schema, LRU clock, key -> entry metadata
        objects/ab/abcdef....json   # one JSON blob per cached result

The pieces:

* :mod:`repro.cache.keys` — canonical JSON, the source-tree fingerprint
  and the key derivation.
* :mod:`repro.cache.codecs` — named encoders/decoders turning result
  objects (``SimulationResult``, ``ChipCampaignResult``, plain
  JSON values) into blobs and back, bit-exact.
* :mod:`repro.cache.store` — the on-disk store: index, blobs, LRU
  eviction, ``stats``/``clear``/``verify`` maintenance.
* :mod:`repro.cache.runtime` — the process-wide activation context that
  :func:`~repro.experiments.runner.run_experiment` installs and
  :func:`~repro.perf.parallel.parallel_map` consults.

Maintenance CLI: ``python -m repro.cache {stats,clear,verify}``.
"""

from __future__ import annotations

from repro.cache.codecs import decode_result, encode_result
from repro.cache.keys import cache_key, canonical_json, source_fingerprint
from repro.cache.runtime import CacheContext, activate, active
from repro.cache.store import CacheStats, ResultCache

__all__ = [
    "CacheContext",
    "CacheStats",
    "ResultCache",
    "activate",
    "active",
    "cache_key",
    "canonical_json",
    "decode_result",
    "encode_result",
    "source_fingerprint",
]
