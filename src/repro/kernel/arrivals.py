"""Pre-decoded arrival streams for the vectorized kernel.

The reference simulator draws its traffic one scalar call at a time:
each non-stalled source attempts a Bernoulli coin per cycle
(:class:`~repro.utils.rng.BatchedBernoulli`, scalar-stream-exact by
construction) and, on a hit, draws the packet's destination and a
sub-cycle creation offset from the *same* per-source stream.  Because a
stalled source draws nothing, the draw sequence is a pure function of
the number of attempts — it does not depend on simulation state.  That
makes the whole stream decodable up front: this module replays numpy's
bit-level decoding rules directly against the raw PCG64 word stream of
each source and emits, per source, the arrival schedule
``(miss-gap, destination, offset)`` the scalar path would have produced.

Decoding rules (validated against numpy's implementation; the
equivalence tests in ``tests/property/test_kernel_equivalence.py`` re-verify
them on every run):

* ``Generator.random()`` consumes one 64-bit word ``w`` and yields
  ``(w >> 11) * 2.0**-53``; it never touches the bounded-integer cache.
* Bounded ``Generator.integers(0, n)`` (``n <= 2**32``) consumes 32-bit
  half-words — low half first, high half cached in the bit generator —
  and applies Lemire rejection: with ``m = half * n``, the value is
  ``m >> 32``, rejected (draw another half) iff
  ``(m & 0xFFFFFFFF) < (2**32 - n) % n``.

All raw words flow from the same seeded streams the reference kernel
uses (``RandomStream(seed, "omega").spawn(f"source{port}")``), so the
two backends consume byte-identical RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError
from repro.network.simulator import CYCLE_CLOCKS
from repro.utils.rng import _seed_for

if TYPE_CHECKING:
    from repro.network.simulator import NetworkConfig

__all__ = ["ArrivalPlan", "decode_arrivals"]

_MASK32 = 0xFFFFFFFF

#: Gap sentinel for "no further arrivals decoded": larger than any
#: possible attempt count, so the countdown never reaches zero.
GAP_SENTINEL = 1 << 62


def _lemire_threshold(n: int) -> int:
    """Rejection threshold of numpy's 32-bit bounded-integer path."""
    return ((1 << 32) - n) % n


class _Cursor:
    """Scalar word-stream decoder with the half-word cache."""

    __slots__ = ("words", "pos", "has_half", "half")

    def __init__(self, words: list[int]) -> None:
        self.words = words
        self.pos = 0
        self.has_half = False
        self.half = 0

    def double(self) -> float:
        words = self.words
        if self.pos >= len(words):
            raise _NeedMoreWords
        word = words[self.pos]
        self.pos += 1
        return (word >> 11) * 2.0**-53

    def bounded(self, n: int, threshold: int) -> int:
        while True:
            if self.has_half:
                half = self.half
                self.has_half = False
            else:
                words = self.words
                if self.pos >= len(words):
                    raise _NeedMoreWords
                word = words[self.pos]
                self.pos += 1
                half = word & _MASK32
                self.half = word >> 32
                self.has_half = True
            m = half * n
            if (m & _MASK32) >= threshold:
                return m >> 32


class _NeedMoreWords(Exception):
    """Raised when the pre-drawn raw words run out mid-decode."""


@dataclass
class ArrivalPlan:
    """Per-source arrival schedules, padded into rectangular arrays.

    ``gaps[n, k]`` is the number of missed attempts the source makes
    before its ``k``-th arrival; ``dests``/``offsets`` are the decoded
    destination and sub-cycle offset.  Column ``counts[n]`` of ``gaps``
    holds :data:`GAP_SENTINEL` so runtime countdowns past the decoded
    horizon never fire.  ``attempts`` is the per-source attempt horizon
    the plan covers.
    """

    gaps: Any
    dests: Any
    offsets: Any
    counts: Any
    attempts: int


def _raw_words(seed: int, name: str, count: int) -> Any:
    """The next ``count`` raw 64-bit words of one seeded stream."""
    import numpy

    return numpy.random.PCG64(_seed_for(seed, name)).random_raw(count)


def _decode_scalar(
    cursor: _Cursor,
    total_attempts: int,
    probability: float,
    kind: str,
    num_ports: int,
    cycle_clocks: int,
    hot_fraction: float,
    hot_port: int,
    fixed_dest: int,
) -> tuple[list[int], list[int], list[int]]:
    """Exact scalar replay of one source's draw sequence."""
    threshold_dest = _lemire_threshold(num_ports)
    threshold_off = _lemire_threshold(cycle_clocks)
    gaps: list[int] = []
    dests: list[int] = []
    offsets: list[int] = []
    miss = 0
    for _attempt in range(total_attempts):
        if probability < 1.0:
            if not cursor.double() < probability:
                miss += 1
                continue
        if kind == "uniform":
            destination = cursor.bounded(num_ports, threshold_dest)
        elif kind == "hotspot":
            # RandomStream.bernoulli skips the draw at exactly 0.0/1.0.
            if hot_fraction >= 1.0:
                destination = hot_port
            elif hot_fraction > 0.0 and cursor.double() < hot_fraction:
                destination = hot_port
            else:
                destination = cursor.bounded(num_ports, threshold_dest)
        else:  # permutation: the mapping is draw-free
            destination = fixed_dest
        offset = cursor.bounded(cycle_clocks, threshold_off)
        gaps.append(miss)
        miss = 0
        dests.append(destination)
        offsets.append(offset)
    return gaps, dests, offsets


def _decode_uniform_vectorized(
    seed: int,
    name: str,
    total_attempts: int,
    probability: float,
    num_ports: int,
    cycle_clocks: int,
) -> tuple[list[int], Any, Any] | None:
    """Fast path for uniform traffic; ``None`` defers to the scalar path.

    Uniform arrivals consume exactly one coin word per attempt and one
    value word per arrival (destination from the low half, offset from
    the high half, cache left empty) — *unless* a Lemire rejection
    occurs, which the scalar fallback handles exactly.
    """
    import numpy

    threshold_dest = _lemire_threshold(num_ports)
    threshold_off = _lemire_threshold(cycle_clocks)
    expected_hits = probability * total_attempts
    margin = 6 * int(math.sqrt(expected_hits + 1.0)) + 16
    count = total_attempts + int(expected_hits) + margin
    words = _raw_words(seed, name, count)
    gaps: list[int] = []
    if probability >= 1.0:
        # The coin short-circuits: every attempt arrives, value words only.
        value_words = words[:total_attempts]
        gaps = [0] * total_attempts
    else:
        doubles = (words >> numpy.uint64(11)) * 2.0**-53
        candidates = numpy.flatnonzero(doubles < probability)
        # A candidate below the scan cursor is a value word that happened
        # to look like a coin hit.  The cursor always advances to
        # ``accepted + 2``, and a maximal run of consecutive candidate
        # indices never straddles that jump (the element after a run is
        # at least two past its last member), so runs are independent:
        # within each run exactly the even offsets from the run start are
        # real coin hits.
        if candidates.size:
            starts = numpy.empty(candidates.size, dtype=bool)
            starts[0] = True
            numpy.greater(numpy.diff(candidates), 1, out=starts[1:])
            run_start = candidates[starts]
            accepted_mask = ((candidates - run_start[numpy.cumsum(starts) - 1]) & 1) == 0
            pos_arr = candidates[accepted_mask]
        else:
            pos_arr = candidates
        # Attempt k's coin sits at word ``pos_arr[k] - k`` of the attempt
        # stream (k value words precede it), so the cumulative attempt
        # count after accepting it is ``pos_arr[k] - k + 1``.
        counts = numpy.arange(pos_arr.size, dtype=numpy.int64)
        keep = pos_arr - counts < total_attempts
        if not keep.all():
            pos_arr = pos_arr[keep]
        elif len(words) - pos_arr.size < total_attempts:
            # Each hit consumes two words and each miss one, so the
            # stream covers ``len(words) - hits`` attempts in total.
            return None  # stream shorter than the horizon; rare
        gap_arr = numpy.diff(pos_arr, prepend=-2) - 2
        gaps = gap_arr.tolist()
        value_words = words[pos_arr + 1]
    low = (value_words & numpy.uint64(_MASK32)).astype(numpy.int64)
    high = (value_words >> numpy.uint64(32)).astype(numpy.int64)
    m_dest = low * num_ports
    m_off = high * cycle_clocks
    rejected = ((m_dest & _MASK32) < threshold_dest) | (
        (m_off & _MASK32) < threshold_off
    )
    if bool(rejected.any()):
        return None  # ~1e-9 per half-word; replay exactly in scalar mode
    return gaps, m_dest >> 32, m_off >> 32


def decode_arrivals(config: "NetworkConfig", total_attempts: int) -> ArrivalPlan:
    """Decode every source's arrival schedule for ``total_attempts``."""
    import numpy

    from repro.network.traffic import PermutationTraffic, make_traffic

    if total_attempts < 0:
        raise ConfigurationError("total_attempts cannot be negative")
    pattern = make_traffic(
        config.traffic_kind,
        config.num_ports,
        config.hot_fraction,
        config.hot_port,
    )
    mapping = (
        pattern.mapping if isinstance(pattern, PermutationTraffic) else None
    )
    probability = config.offered_load
    num_ports = config.num_ports
    per_source: list[tuple[list[int], Any, Any]] = []
    for port in range(num_ports):
        name = f"omega/source{port}"
        if probability <= 0.0:
            per_source.append(([], [], []))
            continue
        decoded: tuple[list[int], Any, Any] | None = None
        if pattern.kind == "uniform":
            decoded = _decode_uniform_vectorized(
                config.seed,
                name,
                total_attempts,
                probability,
                num_ports,
                CYCLE_CLOCKS,
            )
        if decoded is None:
            # Exact scalar replay, growing the word window as needed.
            count = int(total_attempts * (1.0 + 4.0 * probability)) + 64
            while True:
                cursor = _Cursor(_raw_words(config.seed, name, count).tolist())
                try:
                    decoded = _decode_scalar(
                        cursor,
                        total_attempts,
                        probability,
                        pattern.kind,
                        num_ports,
                        CYCLE_CLOCKS,
                        config.hot_fraction,
                        config.hot_port,
                        mapping[port] if mapping is not None else 0,
                    )
                except _NeedMoreWords:
                    count *= 2
                    continue
                break
        per_source.append(decoded)

    width = max((len(item[0]) for item in per_source), default=0)
    gaps = numpy.full(
        (num_ports, width + 1), GAP_SENTINEL, dtype=numpy.int64
    )
    dests = numpy.zeros((num_ports, width + 1), dtype=numpy.int64)
    offsets = numpy.zeros((num_ports, width + 1), dtype=numpy.int64)
    counts = numpy.zeros(num_ports, dtype=numpy.int64)
    for port, (source_gaps, source_dests, source_offsets) in enumerate(
        per_source
    ):
        size = len(source_gaps)
        counts[port] = size
        if size:
            gaps[port, :size] = source_gaps
            dests[port, :size] = source_dests
            offsets[port, :size] = source_offsets
    return ArrivalPlan(
        gaps=gaps,
        dests=dests,
        offsets=offsets,
        counts=counts,
        attempts=total_attempts,
    )
