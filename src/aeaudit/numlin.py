"""Dense linear algebra kernel: array validation, SVD, subspace angles, distances.

All routines work on 64-bit float numpy arrays and are pure functions of
their inputs. The SVD and QR factorizations are LAPACK's, via numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasisError, InputDomainError


def as_matrix(x, name: str = "matrix", cols: int | None = None) -> np.ndarray:
    """Validate and return a finite 2-D float64 array, `cols` wide if given."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise InputDomainError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise InputDomainError(f"{name} must be non-empty")
    _require_width(a, cols, name)
    require_finite(a, name)
    return a


def as_vector(x, name: str = "vector", size: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float64 array, of `size` if given."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise InputDomainError(f"{name} must be 1-D, got shape {a.shape}")
    _require_width(a, size, name)
    require_finite(a, name)
    return a


def as_int(value, name: str) -> int:
    """An integer as int; a float is not truncated, and a bool (JSON's
    true) is not taken for 1, so both raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_rows(x, n: int, name: str) -> tuple[np.ndarray, bool]:
    """2-D float64 rows of width n, and whether x was a single vector.

    Unlike as_matrix, non-finite entries pass: the model entry points
    evaluate whatever rows they are given.
    """
    a = np.asarray(x, dtype=np.float64)
    single = a.ndim == 1
    if single:
        a = a[None, :]
    if a.ndim != 2:
        raise InputDomainError(f"{name} must be a vector or rows, got shape {a.shape}")
    _require_width(a, n, name)
    return a, single


def _require_width(a: np.ndarray, n: int | None, name: str) -> None:
    if n is not None and a.shape[-1] != n:
        raise InputDomainError(f"{name} has length {a.shape[-1]}, expected {n}")


def require_finite(a: np.ndarray, name: str = "array") -> None:
    if not np.isfinite(a).all():
        raise InputDomainError(f"{name} contains NaN or Inf entries")


def finite_or_none(v: float) -> float | None:
    """v as a float, or None (JSON null) when it is NaN or infinite."""
    return float(v) if np.isfinite(v) else None


@dataclass
class SvdResult:
    """Thin SVD: x = u @ diag(sigma) @ v.T with orthonormal u (m,r), v (n,r)."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def svd(x) -> SvdResult:
    """Thin SVD via LAPACK (``np.linalg.svd``).

    Singular values are returned descending; each right-singular vector is
    signed so its leading entry (the first of largest magnitude, ties
    within a relative 1e-12 included) is positive. That pins each pair's
    sign even when two entries tie in magnitude up to rounding, so LAPACK
    builds that round differently still agree on it. With repeated
    singular values only the spanned subspaces are well defined.

    Raises:
        InputDomainError: Non-finite input.
    """
    a = as_matrix(x, "svd input")
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return _signed(SvdResult(u=u, sigma=sigma, v=vt.T))


def _signed(res: SvdResult) -> SvdResult:
    """Flip column pairs so each right-singular vector's leading entry is > 0.

    The leading entry is the first one within a relative 1e-12 of the
    column's largest magnitude, so entries that tie up to rounding (the
    eigenvectors of [[2, 1], [1, 2]], say) pick the same sign whichever
    of them rounding happened to make larger.
    """
    mag = np.abs(res.v)
    lead = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
    flip = res.v[lead, np.arange(res.v.shape[1])] < 0.0
    res.v[:, flip] = -res.v[:, flip]
    res.u[:, flip] = -res.u[:, flip]
    return res


def orthonormal_columns(x, name: str = "matrix") -> np.ndarray:
    """Orthonormal basis with the same column span, via Householder QR.

    Raises:
        DegenerateBasisError: Columns are linearly dependent, including more
            columns than rows.
    """
    a = as_matrix(x, name)
    m, n = a.shape
    if n > m:
        raise DegenerateBasisError(
            f"{name} column {m} is linearly dependent on earlier columns "
            f"({n} columns in {m} dimensions)"
        )
    q, r = np.linalg.qr(a)
    scale = np.sqrt(np.sum(a * a, axis=0))
    dependent = np.flatnonzero(np.abs(np.diag(r)) <= 1e-10 * np.maximum(scale, 1.0))
    if dependent.size:
        raise DegenerateBasisError(
            f"{name} column {dependent[0]} is linearly dependent on earlier columns"
        )
    return q


def principal_angles(a, b) -> np.ndarray:
    """Principal angles (radians, ascending) between two column spans.

    Orthonormalizes each input, then takes arccos of the singular values of
    Qa.T @ Qb. Angles lie in [0, pi/2]; all zeros means identical subspaces.
    """
    qa = orthonormal_columns(a, "first subspace")
    qb = orthonormal_columns(b, "second subspace")
    if qa.shape[0] != qb.shape[0]:
        raise InputDomainError(
            f"subspaces live in different spaces: {qa.shape[0]} vs {qb.shape[0]} rows"
        )
    cross = svd(qa.T @ qb)
    cos = np.clip(cross.sigma, -1.0, 1.0)
    return np.arccos(cos)  # sigma descending -> angles ascending


# Element budget of the scratch arrays formed one chunk of rows at a time:
# the (rows, m, n) arrays of a scan of many query rows against m training
# rows of width n, and the patches of a conv layer's forward pass. A chunk
# holds at least one row, so scratch stays within the larger of this budget
# and one row's share.
SCRATCH_ELEMENTS = 1 << 16


def row_chunks(k: int, per_row: int) -> list[slice]:
    """Slices splitting k rows into chunks of at most SCRATCH_ELEMENTS //
    per_row rows each (at least one)."""
    step = max(1, SCRATCH_ELEMENTS // per_row)
    return [slice(i, min(i + step, k)) for i in range(0, k, step)]


def pairwise_min_distance(x, a):
    """Euclidean distance from a to the nearest row of x (see nearest_row)."""
    return nearest_row(x, a)[1]


def nearest_row(x, a):
    """Index of the closest row of x to a, with the distance.

    a is one vector, giving (int, float), or a (k, n) array of rows, giving
    k indices and k distances. Each row's result has the bits a one-vector
    call gives; the rows are scanned a chunk at a time (`row_chunks`).
    """
    xm = as_matrix(x, "data matrix")
    q, single = as_rows(a, xm.shape[1], "query")
    require_finite(q, "query vector" if single else "query rows")
    idx = np.empty(q.shape[0], dtype=np.intp)
    d2 = np.empty(q.shape[0])
    for c in row_chunks(q.shape[0], xm.size):
        idx[c], d2[c] = _nearest_squared(xm, q[c])
    dist = np.sqrt(d2)
    if single:
        return int(idx[0]), float(dist[0])
    return idx, dist


def _nearest_squared(xm: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the closest row of xm to each row of q, and the squared
    distance; the (k, m, n) scratch is freed on return."""
    d2 = ((xm - q[:, None, :]) ** 2).sum(axis=2)
    i = d2.argmin(axis=1)
    return i, d2[np.arange(q.shape[0]), i]
