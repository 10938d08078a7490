"""Windowed batch decoding of the sources' arrival streams.

The reference simulator draws its traffic one scalar call at a time:
each non-stalled source attempts a Bernoulli coin per cycle
(:class:`~repro.utils.rng.BatchedBernoulli`, scalar-stream-exact by
construction) and, on a hit, draws the packet's destination and a
sub-cycle creation offset from the *same* per-source stream.  Because a
stalled source draws nothing, the draw sequence is a pure function of
the number of attempts — it does not depend on simulation state.

:class:`ArrivalDecoder` replays numpy's bit-level decoding rules against
the raw PCG64 words of every source of a kernel batch at once: one draw
step makes one attempt for all its sources — coin, hot draw,
destination and offset — and :func:`decode_arrivals` runs
:data:`WINDOW` steps and emits the window's arrivals.  Between calls
the decoder keeps each source's word cursor (its bit generator, rewound
past the words the window drew ahead but did not use) and its cached
half-word, so a kernel holds one window of arrivals at a time, however
long it runs.

Decoding rules (validated against numpy's implementation;
``tests/property/test_arrival_decoder.py`` checks the decoder against
the reference sources, and :func:`decode_rules_mismatch` re-checks the
rules once per process against whatever numpy is installed before the
kernel runs):

* ``Generator.random()`` consumes one 64-bit word ``w`` and yields
  ``(w >> 11) * 2.0**-53``; it never touches the bounded-integer cache.
* Bounded ``Generator.integers(0, n)`` (``n <= 2**32``) consumes 32-bit
  half-words — low half first, high half cached in the bit generator —
  and applies Lemire rejection: with ``m = half * n``, the value is
  ``m >> 32``, rejected (draw another half) iff
  ``(m & 0xFFFFFFFF) < (2**32 - n) % n``.

All raw words flow from the same seeded streams the reference simulator
uses (``RandomStream(seed, "omega").spawn(f"source{port}")``), so the
two backends consume byte-identical RNG state.
"""

from __future__ import annotations

from functools import cache
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.network.simulator import CYCLE_CLOCKS
from repro.network.traffic import PermutationTraffic, make_traffic
from repro.utils.rng import _seed_for

if TYPE_CHECKING:
    from repro.network.simulator import NetworkConfig

__all__ = [
    "WINDOW",
    "ArrivalDecoder",
    "decode_arrivals",
    "decode_rules_mismatch",
]

#: Attempts per source that one :func:`decode_arrivals` call decodes.  A
#: source makes at most one attempt per cycle, so a window covers at
#: least this many cycles.
WINDOW = 100

_MASK32 = np.uint64(0xFFFFFFFF)

#: State-transition period of PCG64; advancing by ``_PERIOD - k`` steps
#: a stream back by ``k`` words.
_PERIOD = 1 << 128

#: Words drawn ahead per source beyond a window's worst case (one word
#: per draw), which Lemire rejections consume; more are drawn when a
#: window's rejections use them up.
_SPARE = 8


def _lemire_threshold(n: int) -> int:
    """Rejection threshold of numpy's 32-bit bounded-integer path."""
    return ((1 << 32) - n) % n


class _WordCursors:
    """Raw PCG64 word streams drawn together, one row per stream.

    :meth:`_load` draws a block of words ahead for a set of rows;
    :meth:`double` and :meth:`bounded` then make one draw for every row
    of a mask, applying numpy's rules above (the bounded draw keeps each
    row's cached half-word), and :meth:`_release` rewinds every stream
    to just past the words it used.
    """

    def __init__(self, generators: list[Any]) -> None:
        self._generators = generators
        self._has_half = np.zeros(len(generators), dtype=bool)
        self._half = np.zeros(len(generators), dtype=np.uint64)

    def _load(self, rows: Any, count: int) -> None:
        """Draw ``count`` words ahead for each of ``rows``."""
        self._rows = rows
        self._words = self._draw(count)
        self._cursor = np.arange(rows.size, dtype=np.int64) * count
        # Rejection rounds left before the block grows; one spare word
        # stays unread, so every row's cursor stays inside its row.
        self._spare = _SPARE - 1
        self._w_has = self._has_half[rows]
        self._w_half = self._half[rows]

    def _draw(self, count: int) -> Any:
        generators = self._generators
        return np.concatenate(
            [generators[row].random_raw(count) for row in self._rows.tolist()]
        ).reshape(self._rows.size, count)

    def _extend(self) -> None:
        """Draw ``_SPARE`` more words for every row, keeping the cursors."""
        rows, width = self._words.shape
        offsets = self._cursor - np.arange(rows, dtype=np.int64) * width
        self._words = np.concatenate([self._words, self._draw(_SPARE)], axis=1)
        self._cursor = np.arange(rows, dtype=np.int64) * (width + _SPARE) + offsets
        self._spare += _SPARE

    def _release(self) -> None:
        """Rewind every row's stream past its unused words; keep the halves."""
        rows, width = self._words.shape
        unused = np.arange(1, rows + 1, dtype=np.int64) * width - self._cursor
        generators = self._generators
        for row, count in zip(self._rows.tolist(), unused.tolist()):
            generators[row].advance(_PERIOD - count)
        self._has_half[self._rows] = self._w_has
        self._half[self._rows] = self._w_half
        del self._words, self._cursor, self._w_has, self._w_half, self._rows

    def _next_words(self, mask: Any) -> Any:
        """Every row's next word; the masked rows consume theirs."""
        words = self._words.reshape(-1)[self._cursor]
        self._cursor += mask
        return words

    def double(self, mask: Any) -> Any:
        """One ``random()`` for every masked row (garbage elsewhere)."""
        return (self._next_words(mask) >> 11) * 2.0**-53

    def bounded(self, mask: Any, bound: int) -> Any:
        """One ``integers(0, bound)`` for every masked row (garbage
        elsewhere)."""
        has = self._w_has
        fresh = mask & ~has
        words = self._next_words(fresh)
        halves = np.where(has, self._w_half, words & _MASK32)
        np.copyto(self._w_half, words >> 32, where=fresh)
        self._w_has = has ^ mask
        product = halves * np.uint64(bound)
        values = (product >> 32).astype(np.int64)
        threshold = _lemire_threshold(bound)
        if threshold:
            rejected = mask & ((product & _MASK32) < threshold)
            if rejected.any():
                # Each redraw consumes at most one word per row.
                if not self._spare:
                    self._extend()
                self._spare -= 1
                np.copyto(values, self.bounded(rejected, bound), where=rejected)
        return values


class ArrivalDecoder(_WordCursors):
    """The arrival draws of every source of a batch, decoded together.

    Source ``p = b * N + n`` is port ``n`` of configuration ``b``.
    ``decoded[p]`` counts the attempts decoded so far for source ``p``.
    """

    def __init__(self, configs: list["NetworkConfig"]) -> None:
        num_ports = configs[0].num_ports
        patterns = [
            make_traffic(config.traffic_kind, num_ports, config.hot_fraction)
            for config in configs
        ]
        super().__init__(
            [
                np.random.PCG64(_seed_for(config.seed, f"omega/source{port}"))
                for config in configs
                for port in range(num_ports)
            ]
        )
        self.num_ports = num_ports
        self.load = np.repeat([c.offered_load for c in configs], num_ports)
        hot_fraction = np.repeat([c.hot_fraction for c in configs], num_ports)
        kind = np.repeat([pattern.kind for pattern in patterns], num_ports)
        # The hot module is output 0; a permutation's destination is
        # draw-free.
        self.fixed = np.concatenate(
            [
                pattern.mapping
                if isinstance(pattern, PermutationTraffic)
                else [0] * num_ports
                for pattern in patterns
            ]
        ).astype(np.int64)
        self.live = self.load > 0.0
        # RandomStream.bernoulli skips the draw at exactly 0.0 and 1.0,
        # for the coin and for the hot-spot choice alike.
        self.coin = self.live & (self.load < 1.0)
        self.hot_fraction = hot_fraction
        self.hot_draw = (
            (kind == "hotspot") & (hot_fraction > 0.0) & (hot_fraction < 1.0)
        )
        # Uniform traffic draws a destination on every arrival, and so
        # does hot-spot traffic that never picks the hot module.
        self.dest_draw = (kind == "uniform") | (
            (kind == "hotspot") & (hot_fraction <= 0.0)
        )
        self.decoded = np.zeros(self.load.size, dtype=np.int64)

    def _window(self, rows: Any) -> tuple[Any, Any, Any]:
        """:data:`WINDOW` attempts of ``rows``: ``[attempt, row]`` arrays
        of the hit flags, destinations and offsets."""
        # An attempt draws at most a coin, a hot-spot choice and one
        # word of half-words.
        per_attempt = 1 + self.coin[rows] + self.hot_draw[rows]
        count = WINDOW * int(per_attempt.max()) + _SPARE
        self._load(rows, count)
        coin = self.coin[rows]
        any_coin = bool(coin.any())
        always = ~coin
        load = self.load[rows]
        hot_draw = self.hot_draw[rows]
        any_hot = bool(hot_draw.any())
        hot_fraction = self.hot_fraction[rows]
        dest_draw = self.dest_draw[rows]
        any_dest = any_hot or bool(dest_draw.any())
        fixed = self.fixed[rows]
        hits = np.empty((WINDOW, rows.size), dtype=bool)
        dests = np.empty((WINDOW, rows.size), dtype=np.int64)
        offsets = np.empty((WINDOW, rows.size), dtype=np.int64)
        num_ports = self.num_ports
        for step in range(WINDOW):
            hit = (self.double(coin) < load) | always if any_coin else always
            if any_dest:
                drawn = hit & dest_draw
                if any_hot:
                    hot = hit & hot_draw
                    drawn |= hot & (self.double(hot) >= hot_fraction)
                dests[step] = np.where(
                    drawn, self.bounded(drawn, num_ports), fixed
                )
            else:
                dests[step] = fixed
            offsets[step] = self.bounded(hit, CYCLE_CLOCKS)
            hits[step] = hit
        self._release()
        self.decoded[rows] += WINDOW
        return hits, dests, offsets


def decode_arrivals(
    decoder: ArrivalDecoder, attempts: Any
) -> tuple[Any, Any, Any, Any]:
    """Decode the next window of every source that may need one.

    ``attempts[p]`` is the number of attempts source ``p`` has made.
    Every live source whose decoded attempts lead that count by less
    than :data:`WINDOW` gets its next :data:`WINDOW` attempts decoded,
    so afterwards each source can make :data:`WINDOW` more attempts
    before it runs out, while no source leads by :data:`WINDOW` * 2 or
    more.  Returns the arrivals as ``(source, attempt, destination,
    offset)`` arrays ordered by source, then attempt; ``attempt`` is the
    1-based attempt total at which the arrival happens.
    """
    rows = np.flatnonzero(decoder.live & (decoder.decoded - attempts < WINDOW))
    if rows.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    start = decoder.decoded[rows]
    hits, dests, offsets = decoder._window(rows)
    row, step = hits.T.nonzero()
    return (
        rows[row],
        start[row] + step + 1,
        dests[step, row],
        offsets[step, row],
    )


#: The decode-rule probe's draw sequence: ``None`` is one ``random()``,
#: an integer ``n`` one ``integers(0, n)``.  Doubles between bounded
#: draws check that ``random()`` leaves the cached high half-word alone;
#: ``2**31 + 1`` has a Lemire threshold of ``2**31 - 1``, so about half
#: of its draws are rejected and redrawn.
_PROBE_DRAWS: tuple[int | None, ...] = (
    None, 4, 64, None, 8, 2**31 + 1, 2**31 + 1, 16, None, 2**31 + 1,
    2**31 + 1, 2**31 + 1, 3, None, None, 2**31 + 1, 64, 2**31 + 1, 4, 8,
) * 3


@cache
def decode_rules_mismatch() -> str | None:
    """Where this numpy's draws leave the decoding rules (``None``: nowhere).

    Replays :data:`_PROBE_DRAWS` through the decoder's own draw steps
    over a raw PCG64 stream and makes the same draws through
    :class:`~repro.utils.rng.RandomStream`, the way the reference
    simulator makes them.  Cached: a process runs it once, at its first
    numpy decision, never at import.
    """
    from repro.utils.rng import RandomStream

    seed, name = 1988, "kernel/decode-probe"
    stream = RandomStream(seed, name)
    cursors = _WordCursors([np.random.PCG64(_seed_for(seed, name))])
    cursors._load(np.zeros(1, dtype=np.int64), len(_PROBE_DRAWS) + _SPARE)
    every = np.ones(1, dtype=bool)
    for index, bound in enumerate(_PROBE_DRAWS):
        if bound is None:
            rule, drawn = "random()", stream.random()
            decoded: float = float(cursors.double(every)[0])
        else:
            rule, drawn = f"integers(0, {bound})", stream.randint(0, bound)
            decoded = int(cursors.bounded(every, bound)[0])
        if drawn != decoded:
            return (
                f"numpy {np.__version__} draws {drawn!r} for {rule} at "
                f"probe draw {index}, but the kernel's decoding rules give "
                f"{decoded!r}"
            )
    return None
