"""Deterministic random-number streams for reproducible simulations.

Every stochastic component of the simulator (traffic generators, arbitration
tie-breakers, hot-spot selection) draws from its own :class:`RandomStream`.
Streams are spawned from a single root seed with named, order-independent
substreams, so adding a new consumer never perturbs the draws seen by the
existing ones — a property the regression tests rely on.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import Any, TypeVar

import numpy as np

_T = TypeVar("_T")

__all__ = ["RandomStream", "BatchedBernoulli"]


def _seed_for(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``root_seed``.

    The derivation hashes the pair so that substream seeds do not collide
    for related names ("port1" vs "port11") and do not depend on the order
    in which substreams are created.
    """
    digest = hashlib.sha256(f"{root_seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStream:
    """A named, seeded source of random draws.

    Thin wrapper over :class:`numpy.random.Generator` exposing only the
    operations the simulators need.  Keeping the surface small makes the
    stochastic behaviour of the models easy to audit.

    Parameters
    ----------
    seed:
        Root seed shared by a family of streams.
    name:
        Substream identifier; two streams with the same ``(seed, name)``
        produce identical draws.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._gen = np.random.default_rng(_seed_for(seed, name))

    def spawn(self, name: str) -> "RandomStream":
        """Create an independent child stream named relative to this one."""
        return RandomStream(self.seed, f"{self.name}/{name}")

    def bernoulli(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        if probability == 0.0:  # repro: noqa=REP004 exact sentinel: skip the RNG draw, keeping the stream bit-identical
            return False
        if probability == 1.0:  # repro: noqa=REP004 exact sentinel: skip the RNG draw, keeping the stream bit-identical
            return True
        return bool(self._gen.random() < probability)

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def choice(self, items: Sequence[_T]) -> _T:
        """Return a uniformly random element of ``items``."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items))]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._gen.shuffle(items)

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)``."""
        return float(self._gen.random())

    def geometric(self, probability: float) -> int:
        """Return a geometric draw (number of trials until first success)."""
        return int(self._gen.geometric(probability))

    def get_state(self) -> dict[str, Any]:
        """The underlying bit generator's exact state (JSON-able).

        PCG64's state dict holds only strings and plain Python ints
        (arbitrary precision survives JSON), so a
        :meth:`set_state` round-trip reproduces the draw sequence
        bit-for-bit.
        """
        state: dict[str, Any] = self._gen.bit_generator.state
        return state

    def set_state(self, state: dict[str, Any]) -> None:
        """Restore a :meth:`get_state` snapshot.

        Mutates the stream's existing generator object in place, so every
        consumer holding a reference to it (e.g. a
        :class:`BatchedBernoulli` coin built on this stream) sees the
        restored state too.
        """
        self._gen.bit_generator.state = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStream(seed={self.seed}, name={self.name!r})"


class BatchedBernoulli:
    """Repeated Bernoulli draws from one stream, amortized over blocks.

    Vectorized generation is much cheaper per draw than scalar calls, but
    a consumer that interleaves other draws (packet destinations, offsets)
    on the same stream needs the *scalar* sequence preserved exactly.
    This coin pre-draws a block of uniforms and, whenever a draw comes up
    ``True``, rewinds the generator past the unused tail of the block —
    every draw on the stream after that point is identical to calling
    :meth:`RandomStream.bernoulli` once per draw.

    Two bit-generator details make the rewind exact (PCG64):

    * ``advance`` moves the raw state by one step per generated double,
      with period ``2**128`` — so ``advance(-unused)`` lands precisely
      after the consumed draw;
    * bounded ``integers`` draws consume *half* a 64-bit word and cache
      the other half inside the bit generator.  ``advance`` clears that
      cache while the scalar path would have kept it, so the cache is
      snapshotted at refill time (uniform doubles never touch it) and
      patched back after a rewind.

    Batching only pays when misses dominate; above ``_SCALAR_THRESHOLD``
    the coin simply draws scalars, which is trivially stream-exact.
    """

    #: State-transition period of numpy's default PCG64 bit generator.
    _PERIOD = 1 << 128

    #: Probabilities above this use plain scalar draws: with frequent hits
    #: the rewind bookkeeping outweighs the vectorization win.
    _SCALAR_THRESHOLD = 0.25

    __slots__ = (
        "probability",
        "_gen",
        "_bit",
        "_block",
        "_buffer",
        "_pos",
        "_cache_has",
        "_cache_val",
    )

    def __init__(
        self,
        stream: RandomStream,
        probability: float,
        block: int | None = None,
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        self.probability = probability
        self._gen = stream._gen
        self._bit = self._gen.bit_generator
        if block is None:
            # A few expected inter-arrival gaps per refill; only relevant
            # below the scalar threshold, where this is at least 16.
            block = (
                16
                if probability <= 0.0
                else max(16, min(1024, int(4.0 / probability)))
            )
        if block < 1:
            raise ValueError(f"block size must be >= 1, got {block}")
        self._block = block
        self._buffer = None
        self._pos = 0
        self._cache_has = 0
        self._cache_val = 0

    def draw(self) -> bool:
        """One Bernoulli draw, bit-identical to ``stream.bernoulli(p)``."""
        probability = self.probability
        if probability == 0.0:  # repro: noqa=REP004 exact sentinel: must match RandomStream.bernoulli's short-circuit
            return False
        if probability == 1.0:  # repro: noqa=REP004 exact sentinel: must match RandomStream.bernoulli's short-circuit
            return True
        if probability > self._SCALAR_THRESHOLD:
            return bool(self._gen.random() < probability)
        buffer = self._buffer
        if buffer is None:
            # Snapshot the half-word cache left behind by bounded-integer
            # draws; the uniform doubles below leave it untouched.
            state = self._bit.state
            self._cache_has = state["has_uint32"]
            self._cache_val = state["uinteger"]
            buffer = self._buffer = self._gen.random(self._block)
            self._pos = 0
        hit = bool(buffer[self._pos] < probability)
        self._pos += 1
        if hit:
            self._rewind_unused()
        elif self._pos == self._block:
            self._buffer = None
        return hit

    def flush(self) -> None:
        """Discard the pre-drawn block, leaving the scalar-equivalent state.

        After a flush the stream's generator holds exactly the state a
        scalar draw-per-call sequence would have left, so its raw state
        can be snapshotted and later restored into a *fresh* coin (whose
        buffer starts empty) without perturbing a single subsequent draw.
        This is the same rewind the hit path performs, so flushing
        mid-run is itself draw-for-draw invisible.
        """
        if self._buffer is not None:
            self._rewind_unused()

    def _rewind_unused(self) -> None:
        """Step the generator back over the block's unconsumed draws."""
        unused = self._block - self._pos
        if unused:
            # Step the generator state *back* over the unused draws so
            # the next draw on the stream (from anyone) sees exactly
            # the state a scalar sequence would have left.
            self._bit.advance(self._PERIOD - unused)
            if self._cache_has:
                state = self._bit.state
                state["has_uint32"] = self._cache_has
                state["uinteger"] = self._cache_val
                self._bit.state = state
        self._buffer = None
