"""Deterministic, portable random numbers.

splitmix64 expands a single 64-bit seed into the 256-bit state of a
xoshiro256** generator; normals come from Box-Muller. Every draw is a pure
function of the seed and the draw order, so any port of these three
algorithms reproduces the exact same streams bit for bit.

Both generators are made of 64-bit shifts, xors, rotates and wrapping
multiplies, so many independent streams can also step together as numpy
`uint64` arrays and give the same bits: `permutations` draws one
Fisher-Yates shuffle per seed that way, and `Rng.permutation` is its
one-stream case.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputDomainError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
# `permutations` draws at most this many numbers at once over all streams;
# its scratch arrays peak at about 75 bytes a draw (2.5 MB)
_CHUNK_DRAWS = 2**15


def _mix(z):
    """splitmix64's output function of one 64-bit state (an int or a uint64 array)."""
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


def _rotl(x, k: int):
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _scramble(s1):
    """xoshiro256**'s output function of the state word s1 (an int or a uint64 array)."""
    return (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64


class Rng:
    """xoshiro256** seeded via splitmix64.

    Not thread-safe; create one instance per deterministic stream.
    """

    def __init__(self, seed: int) -> None:
        self._s = splitmix64(seed, 4)
        self._spare_normal: float | None = None

    def next_uint64(self) -> int:
        s = self._s
        result = _scramble(s[1])
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
        """Fisher-Yates permutation of range(n).

        Position i = n-1, ..., 1 swaps with randbelow(i + 1), one draw each,
        so the generator is left exactly n-1 draws further on. This is the
        one-stream case of `permutations`.
        """
        state = np.array(self._s, dtype=np.uint64).reshape(4, 1)
        idx = _fisher_yates(state, n)[0]
        self._s = [int(w) for w in state[:, 0]]
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


def permutations(seeds, n: int) -> np.ndarray:
    """One Fisher-Yates permutation of range(n) per seed, as an (len(seeds), n) array.

    Row e equals `Rng(seeds[e]).permutation(n)` bit for bit: every stream
    is seeded and stepped as one lane of uint64 arrays.
    """
    # reduced as Python ints first: numpy rejects seeds like -1 or 2**64 + 5
    masked = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)
    # splitmix64(seed, 4): the k-th output mixes seed + k*gamma
    offsets = np.arange(1, 5, dtype=np.uint64).reshape(4, 1) * np.uint64(_GAMMA)
    return _fisher_yates(_mix(masked + offsets), n)


def _fisher_yates(state: np.ndarray, n: int) -> np.ndarray:
    """Fisher-Yates over range(n) for every column of a (4, S) xoshiro256** state.

    The state advances in place by n-1 draws per stream. The draws come a
    chunk of positions at a time, so the scratch memory is bounded whatever
    n and S: `_step` only steps the state, the output function and
    `Rng.randbelow`'s bound then run once over the chunk, and the swaps of
    each position run in every stream at once as one gather and one scatter.
    """
    if not 0 <= n < 2**32:
        raise InputDomainError(f"permutation length must be in [0, 2**32), got {n}")
    streams = state.shape[1]
    rows = np.arange(streams, dtype=np.int64) * n
    idx = np.tile(np.arange(n), streams)
    chunk = max(1, _CHUNK_DRAWS // max(streams, 1))
    for top in range(n - 1, 0, -chunk):
        # positions i = top, top-1, ..., each swapping with a partner in [0, i+1)
        positions = np.arange(top, max(top - chunk, 0), -1).reshape(-1, 1)
        words = _step(state, len(positions))
        # swap[k] = flat positions (i, partner) of every stream
        swap = np.empty((len(positions), 2, streams), dtype=np.int64)
        swap[:, 0] = rows + positions
        swap[:, 1] = _multiply_high(_scramble(words), (positions + 1).astype(np.uint64))
        swap[:, 1] += rows
        swapped = swap[:, ::-1]
        for k in range(len(positions)):
            idx[swap[k]] = idx[swapped[k]]
    return idx.reshape(streams, n)


def _step(state: np.ndarray, steps: int) -> np.ndarray:
    """Advance a (4, S) xoshiro256** state in place; the word s1 before each step, (steps, S)."""
    _, s1, s2, s3 = state
    low, high, high_reversed = state[0:2], state[2:4], state[3:1:-1]
    words = np.empty((steps, state.shape[1]), dtype=np.uint64)
    t = np.empty(state.shape[1], dtype=np.uint64)
    r17, r45, r19 = np.uint64(17), np.uint64(45), np.uint64(19)
    for k in range(steps):
        words[k] = s1
        np.left_shift(s1, r17, out=t)
        high ^= low  # s2 ^= s0, s3 ^= s1
        low ^= high_reversed  # s0 ^= s3, s1 ^= s2
        s2 ^= t
        np.left_shift(s3, r45, out=t)
        s3 >>= r19
        s3 |= t  # s3 = rotl(s3, 45)
    return words


def _multiply_high(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """(u * n) >> 64 for uint64 u and n < 2**32, exactly, from the 32-bit halves of u.

    With u = hi * 2**32 + lo, every partial product stays below 2**64.
    """
    lo_product = ((u & np.uint64(0xFFFFFFFF)) * n) >> np.uint64(32)
    return ((u >> np.uint64(32)) * n + lo_product) >> np.uint64(32)
