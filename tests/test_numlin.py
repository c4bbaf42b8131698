"""Tests for the linear algebra kernel."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aeaudit import numlin
from aeaudit.adversary import (
    construct_pca_adversary,
    latent_decode_adversary,
    optimal_biases,
    pgd_adversary,
    write_pgm,
)
from aeaudit.anomaly import sample_scores
from aeaudit.audit import scan_latent_space
from aeaudit.datagen import Dataset
from aeaudit.errors import DegenerateBasisError, InputDomainError
from aeaudit.models import build_mlp_autoencoder, decode_batch, encode_batch, pca_fit
from aeaudit.numlin import (
    SvdResult,
    _signed,
    nearest_row,
    orthonormal_columns,
    pairwise_min_distance,
    principal_angles,
    svd,
)
from aeaudit.rng import Rng
from aeaudit.training import TrainConfig, input_gradient, train


def max_abs(a):
    return float(np.max(np.abs(a)))


def check_svd_contract(x, res: SvdResult):
    m, n = x.shape
    r = min(m, n)
    assert res.u.shape == (m, r)
    assert res.v.shape == (n, r)
    assert res.sigma.shape == (r,)
    assert np.all(res.sigma >= 0.0)
    assert np.all(np.diff(res.sigma) <= 0.0), "sigma must be descending"
    assert max_abs(res.u.T @ res.u - np.eye(r)) < 1e-10
    assert max_abs(res.v.T @ res.v - np.eye(r)) < 1e-10
    recon = res.u @ np.diag(res.sigma) @ res.v.T
    assert max_abs(recon - x) < 1e-8 * (1.0 + max_abs(x))


def test_svd_identity():
    res = svd(np.eye(3))
    assert np.allclose(res.sigma, [1.0, 1.0, 1.0])
    check_svd_contract(np.eye(3), res)


def test_svd_diagonal():
    x = np.diag([3.0, 2.0])
    res = svd(x)
    assert np.allclose(res.sigma, [3.0, 2.0])
    # u and v are signed permutations of the identity
    assert np.allclose(np.abs(res.u), np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(res.v), np.eye(2), atol=1e-12)
    check_svd_contract(x, res)


def test_svd_random_tall_reconstructs():
    rng = Rng(101)
    x = rng.normals((5, 3))
    check_svd_contract(x, svd(x))


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 7), (7, 3), (6, 6), (40, 8)])
def test_svd_shapes_and_orthonormality(shape):
    rng = Rng(sum(shape))
    x = rng.normals(shape) * 3.0
    check_svd_contract(x, svd(x))


def test_svd_wide_matches_tall_transpose():
    rng = Rng(7)
    x = rng.normals((3, 6))
    res = svd(x)
    check_svd_contract(x, res)


def test_svd_rank_deficient():
    # rank 1 matrix: second singular value 0, basis still orthonormal
    u = np.array([[1.0], [2.0], [3.0]])
    v = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    x = u @ v
    res = svd(x)
    assert res.sigma[1] < 1e-12
    check_svd_contract(x, res)


def test_svd_zero_matrix():
    x = np.zeros((4, 3))
    res = svd(x)
    assert np.all(res.sigma == 0.0)
    check_svd_contract(x, res)


def test_svd_sign_convention_and_determinism():
    rng = Rng(55)
    x = rng.normals((10, 4))
    res1 = svd(x)
    res2 = svd(x.copy())
    assert res1.u.tobytes() == res2.u.tobytes()
    assert res1.sigma.tobytes() == res2.sigma.tobytes()
    assert res1.v.tobytes() == res2.v.tobytes()
    for j in range(4):
        k = int(np.argmax(np.abs(res1.v[:, j])))
        assert res1.v[k, j] > 0.0
    # the convention binds the right-singular vectors for wide inputs too
    wide = svd(rng.normals((3, 7)))
    for j in range(wide.v.shape[1]):
        k = int(np.argmax(np.abs(wide.v[:, j])))
        assert wide.v[k, j] > 0.0


def test_svd_sign_convention_ignores_last_bit_ties():
    # (x, -y) and (-y, x) are one vector to rounding, with the larger
    # magnitude on opposite entries: argmax alone would sign them oppositely
    x = 1.0 / np.sqrt(2.0)
    y = np.nextafter(x, 1.0)
    u = np.array([[0.6], [0.8]])
    a = _signed(SvdResult(u=u.copy(), sigma=np.array([3.0]), v=np.array([[x], [-y]])))
    b = _signed(SvdResult(u=-u, sigma=np.array([3.0]), v=np.array([[-y], [x]])))
    assert np.array_equal(np.sign(a.v), np.sign(b.v))
    assert np.array_equal(a.u, u) and np.array_equal(b.u, u)
    # a sign-flipped pair comes back to the same bytes
    c = _signed(SvdResult(u=-u, sigma=np.array([3.0]), v=np.array([[-x], [y]])))
    assert c.u.tobytes() == a.u.tobytes() and c.v.tobytes() == a.v.tobytes()


def test_svd_agrees_with_lapack_singular_values():
    rng = Rng(31)
    x = rng.normals((12, 5))
    ours = svd(x).sigma
    ref = np.linalg.svd(x, compute_uv=False)
    assert np.allclose(ours, ref, rtol=1e-10, atol=1e-10)


def test_svd_rejects_non_finite():
    x = np.ones((2, 2))
    x[0, 0] = np.nan
    with pytest.raises(InputDomainError):
        svd(x)


def test_projector_idempotence():
    rng = Rng(77)
    x = rng.normals((30, 6))
    res = svd(x)
    for d in range(1, 7):
        vd = res.v[:, :d]
        p = vd @ vd.T
        assert max_abs(p @ p - p) < 1e-10


def test_pythagorean_identity_property():
    # dist(x, a)^2 = |x - xP|^2 + |a - xP|^2 for a in the span of the basis
    rng = Rng(2718)
    for _ in range(200):
        n = 3 + rng.randbelow(6)
        d = 1 + rng.randbelow(n - 1)
        base = svd(rng.normals((n + 5, n))).v[:, :d]
        x = rng.normals((n,)) * 5.0
        a = base @ rng.normals((d,)) * 10.0
        proj = base @ (base.T @ x)
        lhs = float(np.sum((x - a) ** 2))
        rhs = float(np.sum((x - proj) ** 2) + np.sum((a - proj) ** 2))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, lhs)


def test_principal_angles_identical_subspaces():
    a = np.eye(4)[:, :2]
    angles = principal_angles(a, a)
    assert np.allclose(angles, [0.0, 0.0], atol=1e-10)


def test_principal_angles_orthogonal_lines():
    a = np.array([[1.0], [0.0]])
    b = np.array([[0.0], [1.0]])
    assert np.allclose(principal_angles(a, b), [np.pi / 2], atol=1e-12)


def test_principal_angles_45_degrees():
    a = np.array([[1.0], [0.0]])
    b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert np.allclose(principal_angles(a, b), [np.pi / 4], atol=1e-12)


def test_principal_angles_ascending_and_invariant_to_basis_choice():
    rng = Rng(13)
    a = rng.normals((6, 3))
    b = rng.normals((6, 3))
    angles = principal_angles(a, b)
    assert np.all(np.diff(angles) >= -1e-12)
    assert np.all(angles >= -1e-12) and np.all(angles <= np.pi / 2 + 1e-12)
    # mixing columns of a does not change its span
    mix = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 3.0]])
    assert np.allclose(principal_angles(a @ mix, b), angles, atol=1e-8)


def test_principal_angles_rank_deficient_raises():
    a = np.ones((4, 2))  # dependent columns
    with pytest.raises(DegenerateBasisError):
        principal_angles(a, np.eye(4)[:, :2])
    wide = Rng(21).normals((2, 3))  # more columns than dimensions
    with pytest.raises(DegenerateBasisError):
        orthonormal_columns(wide)
    with pytest.raises(DegenerateBasisError):
        principal_angles(wide, np.eye(2))


def test_orthonormal_columns_basic():
    rng = Rng(8)
    a = rng.normals((7, 3))
    q = orthonormal_columns(a)
    assert max_abs(q.T @ q - np.eye(3)) < 1e-12
    # span preserved: projecting a onto q reproduces a
    assert max_abs(q @ (q.T @ a) - a) < 1e-10


def test_pairwise_min_distance_345():
    x = np.array([[0.0, 0.0]])
    assert pairwise_min_distance(x, [3.0, 4.0]) == pytest.approx(5.0)


def test_pairwise_min_distance_zero_on_member_row():
    rng = Rng(4)
    x = rng.normals((10, 3))
    assert pairwise_min_distance(x, x[4]) == 0.0


def test_pairwise_min_distance_matches_exhaustive_scan():
    rng = Rng(12)
    x = rng.normals((20, 5))
    a = rng.normals((5,))
    brute = min(float(np.linalg.norm(row - a)) for row in x)
    assert pairwise_min_distance(x, a) == pytest.approx(brute, rel=1e-12)
    idx, dist = nearest_row(x, a)
    assert dist == pytest.approx(brute)
    assert float(np.linalg.norm(x[idx] - a)) == pytest.approx(brute)


def test_pairwise_min_distance_dimension_mismatch():
    with pytest.raises(InputDomainError):
        pairwise_min_distance(np.ones((3, 2)), [1.0, 2.0, 3.0])


def check_nearest_rows(x, a, idx, dist):
    """idx and dist have the bits of one-vector calls and of the one-vector
    scan np.sum((x - row) ** 2, axis=1)."""
    one = [nearest_row(x, row) for row in a]
    assert all(isinstance(i, int) and isinstance(d, float) for i, d in one)
    assert idx.tolist() == [i for i, _ in one]
    assert dist.tobytes() == np.array([d for _, d in one], dtype=np.float64).tobytes()
    scans = [np.sum((x - row) ** 2, axis=1) for row in a]
    assert idx.tolist() == [int(np.argmin(d2)) for d2 in scans]
    assert dist.tobytes() == np.sqrt(np.array([d2.min() for d2 in scans])).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@given(m=st.integers(1, 20), k=st.integers(0, 12), budget=st.sampled_from([None, 1, 7, 60]),
       seed=st.integers(0, 2**32 - 1))
def test_nearest_row_on_rows_matches_one_vector_calls(n, m, k, budget, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    x[-1] = x[0]  # a tie between two rows goes to the lower index
    a = rng.standard_normal((k, n))
    a[::3] = x[rng.integers(m, size=len(a[::3]))]  # queries on a row
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:  # chunks of one or a few rows
            mp.setattr(numlin, "SCRATCH_ELEMENTS", budget)
        idx, dist = nearest_row(x, a)
    check_nearest_rows(x, a, idx, dist)


def test_nearest_row_on_wide_rows_matches_one_vector_calls(monkeypatch):
    rng = np.random.default_rng(784)
    x = rng.uniform(0.0, 1.0, (30, 784))
    a = rng.uniform(0.0, 1.0, (7, 784))
    a[2] = x[5]
    monkeypatch.setattr(numlin, "SCRATCH_ELEMENTS", 2 * x.size)  # chunks of two rows
    idx, dist = nearest_row(x, a)
    check_nearest_rows(x, a, idx, dist)


def test_nearest_row_rejects_bad_queries():
    x = np.ones((3, 2))
    with pytest.raises(InputDomainError, match="vector or rows"):
        nearest_row(x, np.ones((2, 2, 2)))
    with pytest.raises(InputDomainError, match="query has length 3"):
        nearest_row(x, np.ones((4, 3)))
    with pytest.raises(InputDomainError, match="NaN or Inf"):
        nearest_row(x, [[0.0, 1.0], [np.nan, 0.0]])


# --- one width rule for every entry point ----------------------------------------


@pytest.fixture()
def width_inputs(tmp_path):
    """Models and data of width 2 (latent 1, or 2 for `ae2`), and rows x3 of
    width 3 to pass where width 2 is expected."""
    x2 = Rng(5).uniforms(-1.0, 1.0, (10, 2))
    return {
        "x2": x2,
        "x3": np.ones((4, 3)),
        "ae": build_mlp_autoencoder([2, 3, 1, 3, 2], seed=0),
        "ae2": build_mlp_autoencoder([2, 3, 2, 3, 2], seed=0),
        "pca": pca_fit(x2, 1),
        "pgm": tmp_path / "a.pgm",
    }


# entry point -> (call on width_inputs, argument name, wrong length, expected length)
WIDTH_CASES = {
    "sample_scores": (lambda c: sample_scores(c["ae"], c["x3"]), "samples", 3, 2),
    "scan_latent_space": (lambda c: scan_latent_space(c["ae2"], c["x3"]), "training data", 3, 2),
    "pgd_adversary": (lambda c: pgd_adversary(c["ae"], c["x3"], delta=1.0), "training data", 3, 2),
    "latent_decode_adversary": (
        lambda c: latent_decode_adversary(c["ae"], [1.0, 2.0, 3.0], c["x2"]), "latent point", 3, 1),
    "construct_pca_adversary": (
        lambda c: construct_pca_adversary(c["pca"], c["x2"], 1.0, direction=[1.0, 0.0, 0.0]),
        "direction", 3, 1),
    "optimal_biases": (
        lambda c: optimal_biases(np.ones((2, 1)), np.ones((1, 2)), c["x3"]), "data", 3, 2),
    "write_pgm": (lambda c: write_pgm(np.zeros(5), (2, 2), c["pgm"]), "image", 5, 4),
    "train": (lambda c: train(c["ae"], Dataset(x=c["x3"]), TrainConfig(epochs=1)), "dataset", 3, 2),
    "nearest_row": (lambda c: nearest_row(c["x2"], c["x3"]), "query", 3, 2),
    "encode_batch": (lambda c: encode_batch(c["ae"], c["x3"]), "input", 3, 2),
    "decode_batch": (lambda c: decode_batch(c["ae"], c["x3"]), "latent", 3, 1),
    "input_gradient": (lambda c: input_gradient(c["ae"], c["x3"]), "input", 3, 2),
}


@pytest.mark.parametrize("entry", sorted(WIDTH_CASES))
def test_wrong_width_gives_one_message_naming_the_argument(width_inputs, entry):
    call, name, got, want = WIDTH_CASES[entry]
    with pytest.raises(InputDomainError, match=rf"^{name} has length {got}, expected {want}$"):
        call(width_inputs)
    assert not width_inputs["pgm"].exists()


def test_as_rows_keeps_non_finite_rows_and_flags_a_single_vector():
    rows, single = numlin.as_rows([np.nan, np.inf], 2, "input")
    assert single and rows.shape == (1, 2) and np.isnan(rows[0, 0])
    rows, single = numlin.as_rows(np.ones((3, 2)), 2, "input")
    assert not single and rows.shape == (3, 2)
    with pytest.raises(InputDomainError, match="input must be a vector or rows"):
        numlin.as_rows(np.ones((2, 2, 2)), 2, "input")
