"""Small portable seedable PRNG used for scan scheduling.

The generator is xorshift64* (Vigna 2016):

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27;  output = x * 0x2545F4914F6CDD1D

with the state initialised through one round of splitmix64 so that any
64-bit seed (including 0) yields a valid nonzero state.  The recurrence is
fixed and documented so independently built scanners reproduce the same
schedules from the same seed.  This is deliberately not cryptographic;
the goal is scan patterns an observer cannot trivially predict, plus
reproducible test runs.
"""

from __future__ import annotations

import os

_MASK = 0xFFFFFFFFFFFFFFFF
_MULT = 0x2545F4914F6CDD1D


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def entropy_seed() -> int:
    """Fresh 64-bit seed from the OS entropy pool."""
    return int.from_bytes(os.urandom(8), "big")


class Prng:
    """xorshift64* stream with unbiased bounded draws and Fisher-Yates shuffle."""

    def __init__(self, seed: int | None = None):
        if seed is None:
            seed = entropy_seed()
        self.seed = seed & _MASK
        self._state = _splitmix64(self.seed)
        if self._state == 0:  # xorshift state must be nonzero
            self._state = 1

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self._state = x
        return (x * _MULT) & _MASK

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection to avoid modulo bias."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK - (_MASK % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> list:
        """In-place Fisher-Yates shuffle; returns the list for convenience.

        Draws exactly what `below(i + 1)` would for each i, with the
        xorshift64* step inlined: a port order shuffles a thousand items,
        and two method calls per item cost as much as the arithmetic.
        """
        mask, mult = _MASK, _MULT
        x = self._state
        for i in range(len(items) - 1, 0, -1):
            n = i + 1
            limit = mask - mask % n
            while True:
                x ^= x >> 12
                x ^= (x << 25) & mask
                x ^= x >> 27
                out = (x * mult) & mask
                if out < limit:
                    break
            j = out % n
            items[i], items[j] = items[j], items[i]
        self._state = x
        return items
