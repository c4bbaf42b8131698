"""Tests for the pinned PRNG stack (splitmix64 -> xoshiro256** -> Box-Muller)."""

import math

import numpy as np
import pytest

from aeaudit import rng as rng_module
from aeaudit.errors import InputDomainError
from aeaudit.rng import Rng, _multiply_high, derive_seed, permutations, splitmix64

# Frozen against the public-domain C reference implementations
# (compiled and run separately; first five outputs per seed).
SPLITMIX_VECTORS = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
        701532786141963250,
    ],
    0xDEADBEEFCAFEF00D: [
        10384543611796878027,
        12091642062541636903,
        1852118247650364724,
        16692712714918790034,
        8315560898597021740,
    ],
}

XOSHIRO_VECTORS = {
    0: [
        11091344671253066420,
        13793997310169335082,
        1900383378846508768,
        7684712102626143532,
        13521403990117723737,
    ],
    42: [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
        17057574109182124193,
        18295552978065317476,
    ],
    0xDEADBEEFCAFEF00D: [
        11399401986271211195,
        1585385652154531860,
        10005412245774160782,
        8949352449651941944,
        14139734282999090898,
    ],
}


@pytest.mark.parametrize("seed", sorted(SPLITMIX_VECTORS))
def test_splitmix64_matches_reference(seed):
    assert splitmix64(seed, 5) == SPLITMIX_VECTORS[seed]


@pytest.mark.parametrize("seed", sorted(XOSHIRO_VECTORS))
def test_xoshiro_matches_reference(seed):
    rng = Rng(seed)
    assert [rng.next_uint64() for _ in range(5)] == XOSHIRO_VECTORS[seed]


def test_same_seed_same_stream():
    a = Rng(123)
    b = Rng(123)
    assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]
    assert Rng(7).normals((3, 4)).tobytes() == Rng(7).normals((3, 4)).tobytes()


def test_random_in_unit_interval():
    rng = Rng(5)
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_normal_moments():
    rng = Rng(99)
    z = rng.normals((20000,))
    assert abs(float(z.mean())) < 0.05
    assert abs(float(z.std()) - 1.0) < 0.05
    assert np.all(np.isfinite(z))


def test_uniform_range_and_mean():
    rng = Rng(11)
    u = rng.uniforms(-2.0, 3.0, (10000,))
    assert u.min() >= -2.0 and u.max() < 3.0
    assert abs(float(u.mean()) - 0.5) < 0.1


def test_randbelow_bounds_and_coverage():
    rng = Rng(17)
    draws = [rng.randbelow(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_permutation_is_a_permutation():
    rng = Rng(3)
    p = rng.permutation(50)
    assert sorted(p.tolist()) == list(range(50))
    # different seeds give different orders
    assert not np.array_equal(p, Rng(4).permutation(50))


def _reference_permutation(rng, n):
    """The scalar Fisher-Yates loop that `Rng.permutation` replaced."""
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.randbelow(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


PERMUTATION_MASTERS = [0, 987654321, -1, 2**64 - 1, 2**64 + 5]
PERMUTATION_LENGTHS = [1, 2, 3, 100, 1000]


@pytest.mark.parametrize("master", PERMUTATION_MASTERS)
@pytest.mark.parametrize("n", PERMUTATION_LENGTHS)
@pytest.mark.parametrize("streams", [1, 3, 2000])
def test_permutations_match_scalar_reference(master, n, streams):
    seeds = [derive_seed(master, k) for k in range(streams)]
    got = permutations(seeds, n)
    assert got.shape == (streams, n) and got.dtype == np.arange(n).dtype
    # the scalar loop costs about 2.5 us a draw: above 200k draws check
    # evenly spaced rows only (still 100 of them)
    stride = max(1, streams * n // 100_000)
    for e in range(0, streams, stride):
        assert got[e].tobytes() == _reference_permutation(Rng(seeds[e]), n).tobytes()


@pytest.mark.parametrize("chunk_draws", [1, 7, 600])
def test_permutations_drawn_in_chunks_match_scalar_reference(monkeypatch, chunk_draws):
    # 3 streams of 250: chunks of 1 position (1 draw), 2 positions (7 draws)
    # and 200 positions (600 draws, the last chunk partial); the state
    # carries over between chunks
    monkeypatch.setattr(rng_module, "_CHUNK_DRAWS", chunk_draws)
    seeds = [derive_seed(5, k) for k in range(3)]
    got = permutations(seeds, 250)
    for e, seed in enumerate(seeds):
        assert got[e].tobytes() == _reference_permutation(Rng(seed), 250).tobytes()
    rng, ref = Rng(seeds[0]), Rng(seeds[0])
    assert rng.permutation(250).tobytes() == _reference_permutation(ref, 250).tobytes()
    assert rng.next_uint64() == ref.next_uint64()


@pytest.mark.parametrize("master", PERMUTATION_MASTERS)
@pytest.mark.parametrize("n", [0, *PERMUTATION_LENGTHS])
def test_permutation_advances_state_like_scalar_loop(master, n):
    seed = derive_seed(master, 7)
    rng, ref = Rng(seed), Rng(seed)
    assert rng.permutation(n).tobytes() == _reference_permutation(ref, n).tobytes()
    assert [rng.next_uint64() for _ in range(3)] == [ref.next_uint64() for _ in range(3)]


def test_multiply_high_matches_python_integers():
    draws = Rng(21)
    us = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, *(draws.next_uint64() for _ in range(5))]
    ns = [1, 2, 3, 2**31, 2**32 - 1]
    u = np.array(us, dtype=np.uint64).reshape(-1, 1)
    n = np.array(ns, dtype=np.uint64).reshape(1, -1)
    got = _multiply_high(u, n)
    assert got.tolist() == [[(a * b) >> 64 for b in ns] for a in us]


@pytest.mark.parametrize("n", [2**32, 2**40, -1])
def test_permutation_rejects_length_outside_32_bits(n):
    with pytest.raises(InputDomainError):
        Rng(0).permutation(n)
    with pytest.raises(InputDomainError):
        permutations([1, 2], n)


def test_derive_seed_is_splitmix_stream():
    master = 987654321
    outs = splitmix64(master, 10)
    for k in range(10):
        assert derive_seed(master, k) == outs[k]
    with pytest.raises(ValueError):
        derive_seed(master, -1)


CLOSED_FORM_STREAMS = (0, 1, 2, 999, 2**20)


@pytest.mark.parametrize("master", [0, 987654321, 2**64 - 1, -1, 2**64 + 5])
def test_derive_seed_closed_form_matches_iterated_splitmix(master):
    # -1 and 2**64 + 5 lie outside [0, 2**64): both forms must reduce them
    # the way splitmix64 masks its seed
    outs = splitmix64(master, max(CLOSED_FORM_STREAMS) + 1)
    for k in CLOSED_FORM_STREAMS:
        assert derive_seed(master, k) == outs[k]


def test_box_muller_exact_formula():
    # First normal must equal the hand-evaluated Box-Muller of the first
    # two xoshiro draws.
    seed = 2024
    raw = Rng(seed)
    u1 = ((raw.next_uint64() >> 11) + 1) * 2.0**-53
    u2 = (raw.next_uint64() >> 11) * 2.0**-53
    expect0 = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    expect1 = math.sqrt(-2.0 * math.log(u1)) * math.sin(2.0 * math.pi * u2)
    rng = Rng(seed)
    assert rng.normal() == expect0
    assert rng.normal() == expect1
