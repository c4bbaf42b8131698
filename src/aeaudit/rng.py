"""Deterministic, portable random numbers.

splitmix64 expands a single 64-bit seed into the 256-bit state of a
xoshiro256** generator; normals come from Box-Muller. Every draw is a pure
function of the seed and the draw order, so any port of these three
algorithms reproduces the exact same streams bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """splitmix64's output function of one 64-bit state."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + _GAMMA) & _MASK64
    return state, _mix(state)


def splitmix64(seed: int, count: int) -> list[int]:
    """First `count` outputs of splitmix64 for the given seed."""
    state = seed & _MASK64
    out = []
    for _ in range(count):
        state, value = _splitmix64_next(state)
        out.append(value)
    return out


def derive_seed(master: int, stream: int) -> int:
    """Deterministic sub-seed: the (stream+1)-th splitmix64 output of master.

    splitmix64's state is an additive counter, so that output has the closed
    form mix((master + (stream+1)*gamma) mod 2**64) and costs O(1) for any
    stream (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
    Generators", OOPSLA 2014). `splitmix64` remains the iterated reference.
    """
    if stream < 0:
        raise ValueError(f"stream must be >= 0, got {stream}")
    return _mix((master + (stream + 1) * _GAMMA) & _MASK64)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** seeded via splitmix64.

    Not thread-safe; create one instance per deterministic stream.
    """

    def __init__(self, seed: int) -> None:
        self._s = splitmix64(seed, 4)
        self._spare_normal: float | None = None

    def next_uint64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def normal(self) -> float:
        """Standard normal via Box-Muller; draws come in cached pairs."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # u1 in (0, 1] keeps log(u1) finite
        u1 = ((self.next_uint64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_uint64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def randbelow(self, n: int) -> int:
        """Integer in [0, n) by 128-bit multiply-shift (no rejection loop)."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return (self.next_uint64() * n) >> 64

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def normals(self, shape: tuple[int, ...]) -> np.ndarray:
        """Array of standard normals filled in row-major draw order."""
        n = int(np.prod(shape)) if shape else 1
        vals = [self.normal() for _ in range(n)]
        return np.array(vals, dtype=np.float64).reshape(shape)

    def uniforms(self, lo: float, hi: float, shape: tuple[int, ...]) -> np.ndarray:
        """Array of uniforms in [lo, hi) filled in row-major draw order."""
        n = int(np.prod(shape)) if shape else 1
        vals = [self.uniform(lo, hi) for _ in range(n)]
        return np.array(vals, dtype=np.float64).reshape(shape)
