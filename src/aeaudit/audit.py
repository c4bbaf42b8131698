"""Reconstruction-loss cartography over input or latent planes.

A grid scan evaluates the model's self-reconstruction loss at every node of
a rectangular lattice, then extracts the connected sub-epsilon regions (the
"red zones" of a contour plot). A region whose nearest cell lies farther
than the far threshold from every training point is an out-of-bounds
finding: a place where the detector reconstructs well despite never having
seen data. The rule reads the nearest cell only, so a region that holds
training data is no finding however far it reaches, and an audit without
findings does not show that no far blind spot exists.

Grid node coordinates are computed as min + (k * span) / (n - 1), which
makes nested refinement exact: doubling the resolution to 2n-1 nodes
reproduces the coarse nodes bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numlin
from .anomaly import sample_scores
from .errors import InputDomainError, NumericalError
from .models import decode_batch, encode_batch, write_json

# Grid nodes whose losses `_scan` computes in one batch, so the model's scratch
# is that of one block at any resolution. BLAS rounds a product by its row
# count (smaller blocks moved conv latent losses by up to 1.3e-18), so the
# block is fixed, and at 1024 nodes a 32x32 audit stays one block with the
# bits of a whole-grid batch.
SCAN_BLOCK = 1024


@dataclass
class Region:
    """A 4-connected set of grid cells whose loss is below epsilon.

    out_of_bounds, the audit's verdict, is set by `extract_regions`: the
    region's nearest cell (min_dist_to_train) lies past the far threshold.
    A region with one cell within it, such as one holding training data, is
    no finding however far its other cells reach.
    """

    cells: list[tuple[int, int]]
    representative: tuple[int, int]  # (i, j) of the minimal-loss cell
    representative_point: tuple[float, float]
    representative_loss: float
    min_dist_to_train: float
    contains_training_data: bool
    out_of_bounds: bool


@dataclass
class AuditGrid:
    """Loss lattice plus the regions extracted from it."""

    space: str
    bounds: tuple[float, float, float, float]  # xmin, xmax, ymin, ymax
    xs: np.ndarray  # (nx,)
    ys: np.ndarray  # (ny,)
    losses: np.ndarray  # (ny, nx); losses[i, j] belongs to (xs[j], ys[i])
    epsilon: float
    far_threshold: float
    regions: list[Region]
    train_points: np.ndarray  # (m, 2) in the grid's space

    @property
    def resolution(self) -> tuple[int, int]:
        return self.xs.shape[0], self.ys.shape[0]

    def out_of_bounds_regions(self) -> list[Region]:
        return [r for r in self.regions if r.out_of_bounds]


def grid_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """n nodes from lo to hi; refinement to 2n-1 nodes is bit-exact."""
    if n < 2:
        raise InputDomainError(f"resolution must be >= 2 nodes per axis, got {n}")
    if not lo < hi:
        raise InputDomainError(f"bounds must be increasing, got ({lo}, {hi})")
    span = hi - lo
    return np.array([lo + (k * span) / (n - 1) for k in range(n)])


def inflate_bounds(points: np.ndarray, factor: float) -> tuple[float, float, float, float]:
    """Bounding box of 2-D points scaled about its center; degenerate sides
    get a half-extent of 1."""
    pts = numlin.as_matrix(points, "points")
    if pts.shape[1] != 2:
        raise InputDomainError("bounds inflation needs 2-D points")
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    half = np.where(half > 0.0, half * factor, 1.0)
    return (
        float(center[0] - half[0]),
        float(center[0] + half[0]),
        float(center[1] - half[1]),
        float(center[1] + half[1]),
    )


def rms_far_threshold(points: np.ndarray, multiple: float = 3.0) -> float:
    """multiple times the RMS distance of points from their centroid."""
    pts = numlin.as_matrix(points, "points")
    with np.errstate(over="ignore", invalid="ignore"):  # `_scan` refuses a non-finite result
        center = pts.mean(axis=0)
        rms = float(np.sqrt(np.mean(np.sum((pts - center) ** 2, axis=1))))
    return multiple * rms


def _grid_nodes(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """All (x, y) nodes as rows, row-major over (i, j)."""
    nx, ny = xs.shape[0], ys.shape[0]
    pts = np.empty((ny * nx, 2))
    pts[:, 0] = np.tile(xs, ny)
    pts[:, 1] = np.repeat(ys, nx)
    return pts


def scan_input_space(
    model,
    x_train,
    bounds: tuple[float, float, float, float] | None = None,
    resolution: tuple[int, int] = (200, 200),
    epsilon: float = 0.1,
    far_threshold: float | None = None,
) -> AuditGrid:
    """Loss lattice over the 2-D input plane.

    Works for any model with a 2-D input (PCA or autoencoder). Default
    bounds are the training bounding box inflated 4x; the default far
    threshold is 3x the RMS spread of the training points. The nodes are
    scored `SCAN_BLOCK` at a time (`_scan`), so the model's scratch is that
    of one block at any resolution.
    """
    xm = numlin.as_matrix(x_train, "training data")
    if model.input_dim != 2 or xm.shape[1] != 2:
        raise InputDomainError("input-space audits need a 2-D model and 2-D data")
    return _scan(
        "input2d", xm, 4.0, lambda nodes: sample_scores(model, nodes),
        bounds, resolution, epsilon, far_threshold,
    )


def scan_latent_space(
    model,
    x_train,
    bounds: tuple[float, float, float, float] | None = None,
    resolution: tuple[int, int] = (200, 200),
    epsilon: float = 0.1,
    far_threshold: float | None = None,
) -> AuditGrid:
    """Loss lattice over the 2-D latent plane.

    Each node z is decoded to an artificial sample h(z), and the recorded
    loss is that sample's own anomaly score (decode, re-encode, decode).
    Distances and markers live in latent coordinates: the training points
    of the grid are the encodings of x_train. Default bounds inflate the
    encodings' bounding box 2x. The nodes are decoded and scored
    `SCAN_BLOCK` at a time (`_scan`), so the model's scratch is that of one
    block at any resolution.
    """
    xm = numlin.as_matrix(x_train, "training data", cols=model.input_dim)
    if model.latent_dim != 2:
        raise InputDomainError(
            f"latent-space audits need latent_dim == 2, got {model.latent_dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # `_scan` refuses non-finite encodings
        points = encode_batch(model, xm)
    return _scan(
        "latent2d", points, 2.0,
        lambda nodes: sample_scores(model, decode_batch(model, nodes)),
        bounds, resolution, epsilon, far_threshold,
    )


def _scan(space, points, inflate, node_losses, bounds, resolution, epsilon, far_threshold):
    """Shared lattice scan: `node_losses` maps (k, 2) grid nodes to k losses.

    The row-major nodes go to `node_losses` in blocks of `SCAN_BLOCK`, the
    last one shorter, so the scan's scratch is that of one block. A node's
    loss is the one its block gives: its last bits may depend on the other
    rows of the block, as BLAS rounds by the product's shape. The far
    threshold, given or default, the training points and every region's
    distance to them must be finite, or the scan raises before a report
    could hold them.
    """
    if not (epsilon >= 0 and math.isfinite(epsilon)):
        raise InputDomainError(f"epsilon must be finite and >= 0, got {epsilon}")
    if far_threshold is None:
        far_threshold = rms_far_threshold(points)
    if not (far_threshold >= 0 and math.isfinite(far_threshold)):
        raise InputDomainError(f"far_threshold must be finite and >= 0, got {far_threshold}")
    if bounds is None:
        bounds = inflate_bounds(points, inflate)
    xs = grid_axis(bounds[0], bounds[1], resolution[0])
    ys = grid_axis(bounds[2], bounds[3], resolution[1])
    nodes = _grid_nodes(xs, ys)
    # joined after the last block: a losses vector allocated before the first
    # one sat in the heap among the block's large arrays, and under glibc
    # malloc that raised the peak RSS of a 32x32 audit of a 28x28 conv model
    # by 5 MB
    losses = np.concatenate(
        [node_losses(nodes[k:k + SCAN_BLOCK]) for k in range(0, nodes.shape[0], SCAN_BLOCK)]
    ).reshape(ys.shape[0], xs.shape[0])
    if not np.all(np.isfinite(losses)):
        raise NumericalError(f"{space} grid scan produced non-finite losses")
    # the training points are checked before `extract_regions` maps them to
    # nodes, and after the blocks, like the join above, so that nothing is
    # allocated before the first block
    non_finite = f"{space} grid scan gave a non-finite distance to the training data"
    if not np.all(np.isfinite(points)):
        raise NumericalError(non_finite)
    regions = extract_regions(losses, xs, ys, epsilon, points, far_threshold)
    if not all(math.isfinite(r.min_dist_to_train) for r in regions):
        raise NumericalError(non_finite)
    return AuditGrid(
        space=space,
        bounds=bounds,
        xs=xs,
        ys=ys,
        losses=losses,
        epsilon=epsilon,
        far_threshold=far_threshold,
        regions=regions,
        train_points=points,
    )


def extract_regions(
    losses: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    epsilon: float,
    train_points: np.ndarray,
    far_threshold: float,
) -> list[Region]:
    """4-connected components of sub-epsilon cells, annotated with distances.

    A region's min_dist_to_train is the smallest distance from any of its
    cells' coordinates to any training point, and out_of_bounds is set when
    it exceeds far_threshold; contains_training_data is set when some
    training point inside the grid's closed box has its nearest grid node
    in the region (a point outside the box is nearest to an edge node, but
    the region does not hold it).
    Any training point's distance to its nearest node, inside the box or
    not, bounds the distance of that node's region from above, and only
    the cells that could come nearer are scored (`_Reach`): every cell of
    a region that holds no point's nearest node, or of a grid whose
    coordinates come near float range. The distances are taken a chunk of
    cells at a time (`_distance_chunks`), so the scratch stays near
    `numlin.SCRATCH_ELEMENTS` squared distances whatever the region and
    training set, and each chunk of two or more cells gives each cell the
    bits the whole region would in one product; the scored cells hold the
    one the minimum comes from, so the distance is the same float as a
    scan of every cell.
    Regions are ordered by their first cell in row-major order. A region's
    `cells` are in breadth-first order from that cell, visiting neighbours
    up, down, left, right; the report lists them in this order.
    """
    ny, nx = losses.shape
    below = losses < epsilon

    # breadth-first search over flat indices of the mask padded by one False
    # border, so that no neighbour needs a bounds check
    w = nx + 2
    padded = np.zeros((ny + 2, w), dtype=bool)
    padded[1:-1, 1:-1] = below
    free = bytearray(padded.tobytes())
    flats: list[np.ndarray] = []
    for k in np.flatnonzero(below).tolist():
        start = (k // nx + 1) * w + k % nx + 1
        if not free[start]:
            continue
        free[start] = 0
        queue = [start]
        for p in queue:  # the list grows while it is walked: a FIFO queue
            for q in (p - w, p + w, p - 1, p + 1):
                if free[q]:
                    free[q] = 0
                    queue.append(q)
        flats.append(np.array(queue))
    if not flats:
        return []

    with np.errstate(over="ignore"):  # `_scan` refuses a non-finite distance
        neg2_train_t = -2.0 * train_points.T
        train_norms = np.sum(train_points * train_points, axis=1)
    reach = _Reach(train_points, xs, ys, train_norms)
    # one labelling pass: the region of each training point's nearest node
    # gets, from the point's distance to that node, its bound, and the flag
    # if the point lies inside the grid's box
    label = np.full(padded.size, -1)
    label[np.concatenate(flats)] = np.repeat(np.arange(len(flats)), [f.size for f in flats])
    hit = label[(reach.i + 1) * w + reach.j + 1]
    mine = hit >= 0
    contains = np.zeros(len(flats), dtype=bool)
    contains[hit[mine & reach.inside]] = True
    bounds = np.full(len(flats), np.inf)
    np.minimum.at(bounds, hit[mine], reach.node_d2[mine])

    regions: list[Region] = []
    for flat, bound, has_data in zip(flats, bounds.tolist(), contains.tolist()):
        i = flat // w - 1
        j = flat % w - 1
        cell_losses = losses[i, j]
        best = int(np.lexsort((j, i, cell_losses))[0])
        scored = reach.cells_within(i, j, bound)
        coords = np.column_stack((xs[j[scored]], ys[i[scored]]))
        min_d2 = min(
            _min_squared_distance(coords[c], neg2_train_t, train_norms)
            for c in _distance_chunks(coords.shape[0], train_norms.shape[0])
        )
        min_dist = float(np.sqrt(max(min_d2, 0.0)))
        bi, bj = int(i[best]), int(j[best])
        regions.append(
            Region(
                cells=list(zip(i.tolist(), j.tolist())),
                representative=(bi, bj),
                representative_point=(float(xs[bj]), float(ys[bi])),
                representative_loss=float(cell_losses[best]),
                min_dist_to_train=min_dist,
                contains_training_data=has_data,
                out_of_bounds=min_dist > far_threshold,
            )
        )
    return regions


# A cell c's computed squared distance |c|^2 - 2 c.t + |t|^2 to a training
# point t is within about 10 eps (|c|^2 + |t|^2) of the true one: `_Reach`
# widens a region's bound by 64 eps times the largest such sum on the grid,
# more than the two roundings its argument needs. Below `_REACH_NORM2_LIMIT`
# that sum keeps every term of the product far inside float range; at or
# above it (coordinates from about 1e150) every cell is scored.
_REACH_SLACK = 64 * float(np.finfo(np.float64).eps)
_REACH_NORM2_LIMIT = 1e300


class _Reach:
    """Each training point's nearest grid node, whether the point lies in
    the grid's closed box, and which cells can lie within a squared
    distance of some training point.

    A cell c whose computed distance to a point t is the region's minimum
    lies, in truth, within r of t, where r^2 is the bound plus the rounding
    slack. Clamped into the grid's box, t lies within `off_x` of its node's
    column, so c lies within (r + off_x) / `step_x` columns of that node,
    `step_x` the smallest node spacing; rows likewise. One more row and
    column absorb the rounding of that quotient and keep two or more
    cells of a region of two or more, so its product has the bits of the
    whole region's. A 2-D prefix sum of the occupied nodes, made once per
    grid for the first region bounded, counts them in each cell's window.
    A region whose squared distances fit in one `numlin.SCRATCH_ELEMENTS`
    chunk is scored whole: its one product costs less than bounding it
    (on a 200 x 200 input plane with 100 training points and regions of
    under 70 cells, the prefix sum alone doubled `extract_regions`).
    """

    def __init__(self, train_points, xs, ys, train_norms):
        ny, nx = ys.shape[0], xs.shape[0]
        dx = xs[1] - xs[0] if nx > 1 else 1.0
        dy = ys[1] - ys[0] if ny > 1 else 1.0
        tx, ty = train_points[:, 0], train_points[:, 1]
        # a grid or training point near float range only turns pruning off
        with np.errstate(over="ignore", invalid="ignore"):
            self.j = np.clip(np.rint((tx - xs[0]) / dx), 0, nx - 1).astype(int)
            self.i = np.clip(np.rint((ty - ys[0]) / dy), 0, ny - 1).astype(int)
            self.node_d2 = (tx - xs[self.j]) ** 2 + (ty - ys[self.i]) ** 2
            norm2 = float(
                np.max(xs[[0, -1]] ** 2) + np.max(ys[[0, -1]] ** 2) + np.max(train_norms, initial=0.0)
            )
            self._off_x = float(np.max(np.abs(np.clip(tx, xs[0], xs[-1]) - xs[self.j]), initial=0.0))
            self._off_y = float(np.max(np.abs(np.clip(ty, ys[0], ys[-1]) - ys[self.i]), initial=0.0))
            self._step_x = float(np.diff(xs).min()) if nx > 1 else math.inf
            self._step_y = float(np.diff(ys).min()) if ny > 1 else math.inf
        self.inside = (xs[0] <= tx) & (tx <= xs[-1]) & (ys[0] <= ty) & (ty <= ys[-1])
        self._slack = _REACH_SLACK * norm2
        self._prunes = norm2 < _REACH_NORM2_LIMIT and self._step_x > 0 and self._step_y > 0
        self._ny, self._nx, self._m = ny, nx, train_points.shape[0]

    @functools.cached_property
    def _count(self) -> np.ndarray:
        """_count[a, b]: occupied nodes in rows below a and columns below b."""
        occupied = np.zeros((self._ny + 1, self._nx + 1), dtype=np.int64)
        occupied[self.i + 1, self.j + 1] = 1
        return occupied.cumsum(axis=0).cumsum(axis=1)

    def cells_within(self, i, j, bound):
        """Index of the cells (i[k], j[k]) that can lie within squared
        distance `bound` of a training point: a mask, or every cell when
        the bound is not finite, the grid too large to bound rounding or
        the region small enough for one product."""
        if not (self._prunes and bound < math.inf and i.size * self._m > numlin.SCRATCH_ELEMENTS):
            return slice(None)
        ny, nx = self._ny, self._nx
        r = math.sqrt(bound + self._slack)
        hi = int(min((r + self._off_y) / self._step_y, ny)) + 1
        hj = int(min((r + self._off_x) / self._step_x, nx)) + 1
        i0, i1 = np.maximum(i - hi, 0), np.minimum(i + hi + 1, ny)
        j0, j1 = np.maximum(j - hj, 0), np.minimum(j + hj + 1, nx)
        c = self._count
        return c[i1, j1] - c[i0, j1] - c[i1, j0] + c[i0, j0] > 0


def _distance_chunks(k: int, m: int) -> list[slice]:
    """`numlin.row_chunks` of k cells against m training points, with no
    1-row chunk unless k is 1. OpenBLAS gives each row of the (rows, 2) x
    (2, m) distance product the same bits for any chunk of two or more rows,
    but takes a 1-row product on another path with other bits; so a chunk
    holds at least two rows, and a 1-row tail joins the chunk before it."""
    chunks = numlin.row_chunks(k, max(1, min(m, numlin.SCRATCH_ELEMENTS // 2)))
    if len(chunks) > 1 and chunks[-1].stop - chunks[-1].start == 1:
        chunks[-2:] = [slice(chunks[-2].start, k)]
    return chunks


def _min_squared_distance(chunk, neg2_train_t, train_norms) -> float:
    """Smallest |c|^2 - 2 c.t + |t|^2 over the chunk's rows c and the
    training points t; the (rows, m) scratch is freed on return."""
    with np.errstate(over="ignore", invalid="ignore"):  # `_scan` refuses a non-finite distance
        d2 = chunk @ neg2_train_t
        d2 += np.sum(chunk * chunk, axis=1)[:, None]
        d2 += train_norms[None, :]
    return float(d2.min())


def representative_input(grid: AuditGrid, model, region: Region) -> np.ndarray:
    """The input-space sample a region's representative stands for."""
    p = np.array(region.representative_point)
    if grid.space == "input2d":
        return p
    return decode_batch(model, p)


# --- exports ----------------------------------------------------------------


def write_grid_csv(grid: AuditGrid, path) -> None:
    """Row-major x,y,loss lines with full-precision decimals.

    The file is written one grid row at a time.
    """
    xs = [repr(x) for x in grid.xs.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("x,y,loss\n")
        for y, row in zip(grid.ys.tolist(), grid.losses.tolist()):
            mid = f",{y!r},"
            f.write("".join([f"{x}{mid}{loss!r}\n" for x, loss in zip(xs, row)]))


def audit_report(grid: AuditGrid, model_ref: str = "", seed: int | None = None) -> dict:
    """JSON-ready description of the audit outcome."""
    return {
        "space": grid.space,
        "bounds": list(grid.bounds),
        "resolution": list(grid.resolution),
        "epsilon": grid.epsilon,
        "far_threshold": grid.far_threshold,
        "model_file": model_ref,
        "seed": seed,
        "out_of_bounds_found": bool(grid.out_of_bounds_regions()),
        "regions": [
            {
                "cells": [list(c) for c in r.cells],
                "cell_count": len(r.cells),
                "representative": {
                    "i": r.representative[0],
                    "j": r.representative[1],
                    "x": r.representative_point[0],
                    "y": r.representative_point[1],
                    "loss": r.representative_loss,
                },
                "min_dist_to_train": r.min_dist_to_train,
                "contains_training_data": r.contains_training_data,
                "out_of_bounds": r.out_of_bounds,
            }
            for r in grid.regions
        ],
    }


def write_audit_report(grid: AuditGrid, path, model_ref: str = "", seed: int | None = None) -> None:
    write_json(audit_report(grid, model_ref, seed), path)


# --- rendering ----------------------------------------------------------------

_SUB_EPSILON_COLOR = "#ff0000"
_LOW_COLOR = (255, 255, 204)
_HIGH_COLOR = (16, 36, 100)
_LOG_FLOOR = 1e-16


def _fill_palette(losses: np.ndarray, epsilon: float) -> tuple[list[str], np.ndarray]:
    """Palette of fill strings and each cell's index into it.

    Colors interpolate from _LOW_COLOR to _HIGH_COLOR by log10 loss between
    the grid's minimum and maximum; sub-epsilon cells are _SUB_EPSILON_COLOR.
    """
    top = np.log10(float(losses.max()) + _LOG_FLOOR)
    bottom = np.log10(float(losses.min()) + _LOG_FLOOR)
    if top == bottom:
        t = np.zeros(losses.shape)
    else:
        t = np.clip((np.log10(losses + _LOG_FLOOR) - bottom) / (top - bottom), 0.0, 1.0)
    code = np.zeros(losses.shape, dtype=np.int64)
    for lo, hi in zip(_LOW_COLOR, _HIGH_COLOR):
        code = (code << 8) | np.rint(lo + (hi - lo) * t).astype(np.int64)
    code[losses < epsilon] = int(_SUB_EPSILON_COLOR[1:], 16)
    palette, index = np.unique(code, return_inverse=True)
    return [f"#{c:06x}" for c in palette.tolist()], index.reshape(losses.shape)


def render_heatmap(grid: AuditGrid, path) -> None:
    """SVG heatmap: log-scaled colors, red sub-epsilon cells, data markers.

    Output bytes depend only on the grid contents, so identical grids give
    identical files. The cells are written one grid row at a time.
    """
    nx, ny = grid.resolution
    cell_px = max(1.0, 600.0 / max(nx, ny))
    width = nx * cell_px
    height = ny * cell_px
    palette, index = _fill_palette(grid.losses, grid.epsilon)
    fills = [f'" width="{cell_px:.2f}" height="{cell_px:.2f}" fill="{c}"/>\n' for c in palette]
    rect_x = [f'<rect x="{j * cell_px:.2f}" y="' for j in range(nx)]
    with open(path, "w", encoding="utf-8") as f:
        f.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
            f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">\n'
        )
        for i, row in enumerate(index.tolist()):
            y = f"{(ny - 1 - i) * cell_px:.2f}"
            f.write("".join([f"{x}{y}{fills[k]}" for x, k in zip(rect_x, row)]))
        xmin, xmax, ymin, ymax = grid.bounds
        for px, py in grid.train_points.tolist():
            cx = (px - xmin) / (xmax - xmin) * width
            cy = height - (py - ymin) / (ymax - ymin) * height
            if 0.0 <= cx <= width and 0.0 <= cy <= height:
                f.write(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="1.5" fill="#000000"/>\n')
        f.write("</svg>\n")
