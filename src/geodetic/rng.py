"""Deterministic random numbers for graph generation.

SplitMix64 with the standard constants: a 64-bit counter-based generator
whose stream depends only on the seed, never on the platform or the Python
version.  All generators in this package draw from it so that a (family, n,
m_target, seed) tuple always yields the same graph.

Output k of the stream is mix(seed + k * golden), so outputs need not be
made one at a time: the generator computes them in np.uint64 blocks of
BLOCK, which the scalar draws read from, and randrange_array draws a whole
array of bounds at once.  Every draw reads the same outputs, in the same
order, as the one-at-a-time recurrence would.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Outputs computed per block for the scalar draws.
BLOCK = 256

_U64 = np.uint64


def _mixed(state: int, count: int) -> np.ndarray:
    """The count outputs that follow state: mix(state + k * golden), k = 1..count.

    Every operand is np.uint64, so the products wrap mod 2^64 and no value
    is ever promoted to float64.
    """
    z = np.arange(1, count + 1, dtype=_U64)
    z *= _U64(_GOLDEN)
    z += _U64(state)
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


class SplitMix64:
    """SplitMix64 stream; 64-bit state advanced by the golden-ratio increment.

    _state is the state after the last output computed so far; _block holds
    computed outputs as Python ints and _pos is the next one to hand out.
    """

    __slots__ = ("_state", "_block", "_pos")

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._block: list[int] = []
        self._pos = 0

    def next_u64(self) -> int:
        pos = self._pos
        if pos == len(self._block):
            self._block = _mixed(self._state, BLOCK).tolist()
            self._state = (self._state + BLOCK * _GOLDEN) & MASK64
            pos = 0
        self._pos = pos + 1
        return self._block[pos]

    def _peek(self, count: int) -> np.ndarray:
        """The next count outputs as one uint64 array, without consuming them."""
        held = np.array(self._block[self._pos:self._pos + count], dtype=_U64)
        if len(held) == count:
            return held
        return np.concatenate((held, _mixed(self._state, count - len(held))))

    def _advance(self, count: int) -> None:
        """Consume the next count outputs, from the block first."""
        past = self._pos + count - len(self._block)
        if past <= 0:
            self._pos += count
        else:
            self._pos = len(self._block)
            self._state = (self._state + past * _GOLDEN) & MASK64

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), rejection sampled to avoid modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def randrange_array(self, bounds: np.ndarray) -> np.ndarray:
        """randrange(b) for every b of a uint64 array, in order, as one array.

        The same rule as randrange: an output r is accepted for bound b when
        r < 2^64 - (2^64 mod b), that is when r <= ~(2^64 mod b), and a
        rejected output is skipped, so every later draw moves on by one.
        """
        bounds = np.asarray(bounds, dtype=_U64)
        if not bounds.all():
            raise ValueError("bound must be positive")
        ceiling = ~(np.negative(bounds) % bounds)  # largest accepted output, per bound
        out = np.empty_like(bounds)
        done = 0
        while done < len(bounds):
            r = self._peek(len(bounds) - done)
            rejected = np.flatnonzero(r > ceiling[done:])
            # the outputs before the first rejected one are accepted; the
            # rejected one is consumed and skipped, the rest are read again
            stop = int(rejected[0]) if len(rejected) else len(r)
            np.remainder(r[:stop], bounds[done:done + stop], out=out[done:done + stop])
            self._advance(stop + (stop < len(r)))
            done += stop
        return out

    def uniform(self) -> float:
        """Uniform float in [0, 1) built from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * 2.0**-53


def stream_seed(seed: int, attempt: int) -> int:
    """Seed for retry attempt k: user seed xor k golden-ratio increments."""
    return (seed ^ (attempt * _GOLDEN)) & MASK64
