"""Output checks made apart from the program.

Every reference here reads the program's artifacts (model JSON, grid CSV,
audit report, attack JSON) and recomputes what they claim with plain numpy
alone: a dense/direct-convolution forward pass, brute-force distances,
union-find labelling of 4-connected components and LAPACK's SVD. Nothing imports `aeaudit`,
so a fault in the program cannot hide in its own check.

A check raises `CheckError` when an artifact is wrong, and `KnownFault` when
it shows the PGD distance-floor fault: a returned adversary no farther than
delta from the training rows while `search_failed` is false.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_FINDING = 3


class CheckError(Exception):
    """An artifact disagrees with the independent computation."""


class KnownFault(Exception):
    """The PGD result breaks its distance floor (pgd_adversary's known fault)."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(a, b, rtol: float = 1e-7, atol: float = 1e-12) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float), rtol=rtol, atol=atol))


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def read_csv_matrix(path, header: bool = False) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2, skiprows=int(header))


# --- reference forward pass ---------------------------------------------------


def _act(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "linear":
        return z
    if tag == "relu":
        return np.where(z > 0.0, z, 0.0)
    if tag == "sigmoid":
        e = np.exp(-np.abs(z))
        return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    raise CheckError(f"unknown activation {tag!r}")


def conv2d_direct(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Direct strided convolution: one shifted-slice contraction per kernel tap."""
    bsz, _, h, wd = x.shape
    co, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((bsz, co, ho, wo))
    for u in range(k):
        for v in range(k):
            patch = xp[:, :, u : u + stride * (ho - 1) + 1 : stride, v : v + stride * (wo - 1) + 1 : stride]
            out += np.einsum("bchw,oc->bohw", patch, w[:, :, u, v])
    return out + b[None, :, None, None]


def upconv2d_direct(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, pad: int, out_pad: int
) -> np.ndarray:
    """Direct transposed convolution: scatter each input pixel through the kernel."""
    bsz, _, h, wd = x.shape
    _, co, k, _ = w.shape
    ho = (h - 1) * stride - 2 * pad + k + out_pad
    wo = (wd - 1) * stride - 2 * pad + k + out_pad
    full = np.zeros((bsz, co, (h - 1) * stride + k + out_pad, (wd - 1) * stride + k + out_pad))
    for u in range(k):
        for v in range(k):
            contrib = np.einsum("bchw,co->bohw", x, w[:, :, u, v])
            full[:, :, u : u + stride * (h - 1) + 1 : stride, v : v + stride * (wd - 1) + 1 : stride] += contrib
    return full[:, :, pad : pad + ho, pad : pad + wo] + b[None, :, None, None]


def _apply_layer(cfg: dict, a: np.ndarray) -> np.ndarray:
    kind = cfg["kind"]
    if kind == "dense":
        return _act(cfg["activation"], a @ np.array(cfg["weight"]) + np.array(cfg["bias"]))
    if kind == "conv2d":
        z = conv2d_direct(a, np.array(cfg["weight"]), np.array(cfg["bias"]), cfg["stride"], cfg["padding"])
        return _act(cfg["activation"], z)
    if kind == "upconv2d":
        z = upconv2d_direct(
            a, np.array(cfg["weight"]), np.array(cfg["bias"]),
            cfg["stride"], cfg["padding"], cfg["output_padding"],
        )
        return _act(cfg["activation"], z)
    if kind == "flatten":
        return a.reshape(a.shape[0], -1)
    if kind == "reshape":
        return a.reshape(a.shape[0], *cfg["out_shape"])
    raise CheckError(f"unknown layer kind {kind!r}")


class RefModel:
    """Encode, decode and score straight from a saved model document."""

    def __init__(self, doc: dict) -> None:
        self.doc = doc
        self.kind = doc["kind"]
        if self.kind == "pca":
            self.mean = np.array(doc["mean"])
            self.basis = np.array(doc["basis"])
        else:
            self.input_shape = tuple(doc["input_shape"])
            pre = doc.get("preprocessing")
            self.pre = None if pre is None else (np.array(pre["mean"]), np.array(pre["std"]))

    @classmethod
    def load(cls, path) -> "RefModel":
        return cls(read_json(path))

    def encode(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "pca":
            return (x - self.mean) @ self.basis
        a = x if self.pre is None else (x - self.pre[0]) / self.pre[1]
        if len(self.input_shape) == 3:
            a = a.reshape(a.shape[0], *self.input_shape)
        for cfg in self.doc["encoder"]:
            a = _apply_layer(cfg, a)
        return a

    def decode(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "pca":
            return z @ self.basis.T + self.mean
        a = z
        for cfg in self.doc["decoder"]:
            a = _apply_layer(cfg, a)
        a = a.reshape(a.shape[0], -1)
        return a if self.pre is None else a * self.pre[1] + self.pre[0]

    def scores(self, x: np.ndarray, chunk: int = 512) -> np.ndarray:
        """Per-row mean squared reconstruction error, in raw input space."""
        out = []
        for lo in range(0, x.shape[0], chunk):
            part = x[lo : lo + chunk]
            out.append(np.mean((part - self.decode(self.encode(part))) ** 2, axis=1))
        return np.concatenate(out)


def min_distances(points: np.ndarray, rows: np.ndarray, chunk: int = 1024) -> np.ndarray:
    """Brute-force Euclidean distance from each point to its nearest row."""
    out = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk):
        part = points[lo : lo + chunk]
        d2 = np.zeros((part.shape[0], rows.shape[0]))
        for k in range(points.shape[1]):
            diff = part[:, k, None] - rows[None, :, k]
            d2 += diff * diff
        out[lo : lo + chunk] = np.sqrt(d2.min(axis=1))
    return out


def components(mask: np.ndarray) -> set[frozenset]:
    """4-connected components of a boolean grid, as sets of (i, j) cells.

    Union-find over the grid's neighbour pairs: hook each pair's larger root
    onto the smaller one, compress paths, repeat until every pair agrees.
    """
    idx = np.arange(mask.size).reshape(mask.shape)
    across = mask[:, :-1] & mask[:, 1:]
    down = mask[:-1, :] & mask[1:, :]
    a = np.concatenate([idx[:, :-1][across], idx[:-1, :][down]])
    b = np.concatenate([idx[:, 1:][across], idx[1:, :][down]])
    parent = idx.reshape(-1).copy()
    while True:
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        ra, rb = parent[a], parent[b]
        if np.array_equal(ra, rb):
            break
        low = np.minimum(ra, rb)
        np.minimum.at(parent, ra, low)
        np.minimum.at(parent, rb, low)
    cells = np.flatnonzero(mask.reshape(-1))
    roots = parent[cells]
    order = np.argsort(roots, kind="stable")
    cells, roots = cells[order], roots[order]
    groups = np.split(cells, np.flatnonzero(np.diff(roots)) + 1) if cells.size else []
    nx = mask.shape[1]
    return {frozenset(zip((g // nx).tolist(), (g % nx).tolist())) for g in groups}


# --- stage checks ---------------------------------------------------------------


def check_exit(code, expected=(EXIT_OK,)) -> None:
    require(code in expected, f"exit code {code}, expected one of {expected}")


def check_gaussian_csv(code, path, rows: int, sigma: float) -> None:
    """gen-data: shape, finiteness, and moments within 5 standard errors."""
    check_exit(code)
    x = read_csv_matrix(path)
    require(x.shape == (rows, 2), f"gen-data wrote shape {x.shape}, expected ({rows}, 2)")
    require(np.all(np.isfinite(x)), "gen-data wrote non-finite values")
    se_mean = sigma / np.sqrt(rows)
    se_std = sigma / np.sqrt(2.0 * rows)
    require(np.all(np.abs(x.mean(axis=0)) < 5 * se_mean), f"sample mean {x.mean(axis=0)} off 0")
    require(np.all(np.abs(x.std(axis=0) - sigma) < 5 * se_std), f"sample std {x.std(axis=0)} off {sigma}")


def check_trained(code, model_path, report_path, x: np.ndarray, epochs: int) -> None:
    """train: the report covers every epoch, and the saved model's
    recomputed training loss is finite and below the first-epoch loss."""
    check_exit(code)
    model = RefModel.load(model_path)
    report = read_json(report_path)
    losses = report["epoch_losses"]
    require(len(losses) == epochs, f"report has {len(losses)} epoch losses, expected {epochs}")
    loss = float(np.mean(model.scores(x)))
    require(np.isfinite(loss), "recomputed training loss is not finite")
    require(loss < losses[0], f"recomputed training loss {loss} not below first epoch {losses[0]}")


def check_pca(model_path, x: np.ndarray, d: int) -> None:
    """PCA fit: mean, singular values and principal plane against LAPACK."""
    doc = read_json(model_path)
    xc = x - x.mean(axis=0)
    _, sigma, vt = np.linalg.svd(xc, full_matrices=False)
    require(close(doc["mean"], x.mean(axis=0), rtol=1e-12, atol=1e-12), "PCA mean differs")
    require(close(doc["singular_values"], sigma, rtol=1e-9, atol=1e-9 * sigma[0]),
            "singular values differ from np.linalg.svd")
    basis = np.array(doc["basis"])
    require(basis.shape == (x.shape[1], d), f"basis shape {basis.shape}")
    require(close(basis.T @ basis, np.eye(d), atol=1e-10), "basis is not orthonormal")
    ref = vt[:d].T
    gap = np.linalg.norm(basis @ basis.T - ref @ ref.T)
    require(gap < 1e-8, f"basis spans another plane (projector gap {gap:.3e})")


def _read_grid(outdir) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    report = read_json(Path(outdir) / "report.json")
    nx, ny = report["resolution"]
    grid = read_csv_matrix(Path(outdir) / "grid.csv", header=True)
    require(grid.shape == (nx * ny, 3), f"grid.csv has shape {grid.shape}, expected {(nx * ny, 3)}")
    xs, ys = grid[:nx, 0], grid[::nx, 1]
    require(np.array_equal(grid[:, 0], np.tile(xs, ny)) and np.array_equal(grid[:, 1], np.repeat(ys, nx)),
            "grid.csv nodes are not a row-major lattice")
    xmin, xmax, ymin, ymax = report["bounds"]
    require(close(xs, np.linspace(xmin, xmax, nx), rtol=1e-12, atol=1e-12 * (xmax - xmin))
            and close(ys, np.linspace(ymin, ymax, ny), rtol=1e-12, atol=1e-12 * (ymax - ymin)),
            "grid nodes do not span the reported bounds")
    return xs, ys, grid[:, 2].reshape(ny, nx), report


def check_audit(
    code,
    outdir,
    model: RefModel,
    x_train: np.ndarray,
    space: str,
    epsilon: float,
    inflate: float,
    sample: int | None = None,
    losses_at_rounding: float | None = None,
) -> None:
    """audit: grid losses, regions, distances and the exit-code contract.

    Grid losses are recomputed at every node, or at `sample` evenly spread
    nodes plus the lowest one; with `losses_at_rounding` every loss must
    instead lie below that level. Regions are relabelled from the grid with
    4-connectivity, distances are brute force, and the exit code must be 3
    exactly when the report says an out-of-bounds region exists.
    """
    check_exit(code, (EXIT_OK, EXIT_FINDING))
    xs, ys, losses, report = _read_grid(outdir)
    require(report["space"] == space, f"audited {report['space']}, expected {space}")
    require(report["epsilon"] == epsilon, "report epsilon differs from the request")
    require(np.all(np.isfinite(losses)), "non-finite grid losses")
    nodes = np.stack([np.tile(xs, ys.shape[0]), np.repeat(ys, xs.shape[0])], axis=1)
    flat = losses.reshape(-1)

    if losses_at_rounding is not None:
        worst = float(flat.max())
        require(worst <= losses_at_rounding, f"grid loss {worst:.3e} above rounding level")
    else:
        if sample is None:
            idx = np.arange(flat.shape[0])
        else:
            idx = np.unique(np.append(np.linspace(0, flat.shape[0] - 1, sample).astype(int), np.argmin(flat)))
        pts = nodes[idx]
        ref = model.scores(pts if space == "input2d" else model.decode(pts))
        require(close(flat[idx], ref), f"grid losses differ from the reference forward pass "
                f"(max abs gap {np.max(np.abs(flat[idx] - ref)):.3e})")

    train_pts = x_train if space == "input2d" else model.encode(x_train)
    lo, hi = train_pts.min(axis=0), train_pts.max(axis=0)
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    half = np.where(half > 0.0, half * inflate, 1.0)
    expect_bounds = [center[0] - half[0], center[0] + half[0], center[1] - half[1], center[1] + half[1]]
    require(close(report["bounds"], expect_bounds, rtol=1e-9, atol=1e-9), "default bounds differ")
    far = 3.0 * float(np.sqrt(np.mean(np.sum((train_pts - train_pts.mean(axis=0)) ** 2, axis=1))))
    require(close(report["far_threshold"], far, rtol=1e-9), "far threshold differs from 3x RMS spread")

    regions = report["regions"]
    got = {frozenset(tuple(c) for c in r["cells"]) for r in regions}
    require(len(got) == len(regions), "report lists a region twice")
    require(got == components(losses < epsilon), "regions differ from the 4-connected components")
    for r in regions:
        cells = np.array(r["cells"])
        require(r["cell_count"] == cells.shape[0], "cell_count differs from the cell list")
        coords = np.stack([xs[cells[:, 1]], ys[cells[:, 0]]], axis=1)
        dist = float(min_distances(coords, train_pts).min())
        require(close(r["min_dist_to_train"], dist, rtol=1e-9, atol=1e-6),
                f"region distance {r['min_dist_to_train']} differs from brute force {dist}")
        require(r["out_of_bounds"] == (r["min_dist_to_train"] > report["far_threshold"]),
                "out_of_bounds flag contradicts distance and threshold")
    found = any(r["out_of_bounds"] for r in regions)
    require(report["out_of_bounds_found"] == found, "out_of_bounds_found contradicts the regions")
    require((code == EXIT_FINDING) == found, f"exit code {code} with out_of_bounds_found={found}")


def check_attack(
    code,
    path,
    model: RefModel,
    x_train: np.ndarray,
    method: str,
    delta: float | None = None,
    z=None,
    enforce_floor: bool = False,
) -> dict:
    """attack: loss, distance and verdict against the reference; for the
    analytic method also the zero-loss and distance promises; for a latent
    point also the decoded sample. With `enforce_floor`, a PGD result no
    farther than delta while `search_failed` is false is the known fault."""
    check_exit(code)
    doc = read_json(path)
    a = np.array(doc["a"], dtype=float)
    require(a.shape == (x_train.shape[1],) and np.all(np.isfinite(a)), "adversary is malformed")
    loss = float(model.scores(a[None, :])[0])
    dist = float(min_distances(a[None, :], x_train)[0])
    require(close(doc["loss"], loss, rtol=1e-7, atol=1e-14), f"reported loss {doc['loss']} vs reference {loss}")
    require(close(doc["min_dist_to_train"], dist, rtol=1e-9, atol=1e-9),
            f"reported distance {doc['min_dist_to_train']} vs brute force {dist}")
    floor = float(np.min(model.scores(x_train)))
    verdict = doc["verdict"]
    require(close(verdict["score"], loss, rtol=1e-7, atol=1e-14), "verdict score differs")
    require(close(verdict["min_normal_score"], floor, rtol=1e-7, atol=1e-14), "verdict floor differs")
    require(verdict["undetected"] == (verdict["score"] <= verdict["min_normal_score"]),
            "verdict contradicts its own score and floor")
    if method == "analytic":
        require(loss < 1e-10, f"analytic adversary loss {loss:.3e} not below 1e-10")
        require(dist > delta, f"analytic adversary distance {dist} not above delta {delta}")
    if z is not None:
        require(close(a, model.decode(np.asarray(z, dtype=float)[None, :])[0]), "latent adversary is not h(z)")
    if enforce_floor and not doc["search_failed"] and dist <= delta:
        raise KnownFault(f"PGD returned distance {dist:.6g} <= delta {delta} with search_failed false")
    return doc
