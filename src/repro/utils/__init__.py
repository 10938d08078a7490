"""Shared utilities: seeded RNG streams, backoff, tables, stats."""

from repro.utils.backoff import BackoffPolicy
from repro.utils.rng import RandomStream
from repro.utils.stats import OnlineStats
from repro.utils.tables import TextTable

__all__ = [
    "BackoffPolicy",
    "OnlineStats",
    "RandomStream",
    "TextTable",
]
