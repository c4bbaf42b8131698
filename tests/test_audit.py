"""Tests for grid scans, region extraction, and heatmap rendering.

Region extraction and the two writers are also checked against the
per-cell formulations they replaced (a deque BFS with per-region
annotation, and cell-by-cell CSV and SVG writers), kept here as references.
"""

import contextlib
import tracemalloc
import xml.etree.ElementTree as ET
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aeaudit.audit import (
    AuditGrid,
    _grid_nodes,
    audit_report,
    extract_regions,
    grid_axis,
    has_out_of_bounds_region,
    inflate_bounds,
    render_heatmap,
    representative_input,
    rms_far_threshold,
    scan_input_space,
    scan_latent_space,
    write_grid_csv,
)
from aeaudit import audit, numlin
from aeaudit.anomaly import is_undetected, sample_scores, score
from aeaudit.datagen import Dataset, SyntheticSpec, generate
from aeaudit.errors import InputDomainError
from aeaudit.models import (
    PcaModel,
    build_conv_autoencoder,
    build_mlp_autoencoder,
    decode_batch,
    pca_fit,
)
from aeaudit.rng import Rng
from aeaudit.training import TrainConfig, train


def test_grid_axis_endpoints_and_refinement_bit_exact():
    xs = grid_axis(-1.7, 3.3, 9)
    assert xs[0] == -1.7 and xs[-1] == 3.3
    fine = grid_axis(-1.7, 3.3, 17)
    for k in range(9):
        assert fine[2 * k] == xs[k]  # bitwise


def test_grid_axis_validation():
    with pytest.raises(InputDomainError):
        grid_axis(0.0, 1.0, 1)
    with pytest.raises(InputDomainError):
        grid_axis(1.0, 0.0, 5)


def test_inflate_bounds_and_far_threshold():
    pts = np.array([[0.0, -1.0], [2.0, 3.0]])
    xmin, xmax, ymin, ymax = inflate_bounds(pts, 4.0)
    assert (xmin, xmax) == (-3.0, 5.0)
    assert (ymin, ymax) == (-7.0, 9.0)
    # degenerate side fallback
    flat = np.array([[1.0, 0.0], [1.0, 2.0]])
    xmin, xmax, _, _ = inflate_bounds(flat, 4.0)
    assert (xmin, xmax) == (0.0, 2.0)
    # rms threshold: 3x the rms radius
    ring = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert rms_far_threshold(ring) == pytest.approx(3.0)


def test_scan_input_space_pca_diagonal_toy():
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=80, seed=1))
    model = pca_fit(ds.x, d=1)
    grid = scan_input_space(model, ds.x, resolution=(81, 81), epsilon=1e-6)
    assert np.all(grid.losses >= 0.0) and np.all(np.isfinite(grid.losses))
    # losses grow quadratically with perpendicular distance from the diagonal
    xmin, xmax, ymin, ymax = grid.bounds
    mid = ds.x.mean(axis=0)
    for offset in (0.5, 1.0, 2.0):
        p = mid + offset * np.array([1.0, -1.0]) / np.sqrt(2.0)
        from aeaudit.anomaly import sample_scores

        loss = float(sample_scores(model, p[None, :])[0])
        assert loss == pytest.approx(offset**2 / 2.0, rel=1e-8)
    # the zero-loss ray leaves the data: an out-of-bounds region must exist
    assert has_out_of_bounds_region(grid)


def test_scan_input_space_rejects_wrong_dimension():
    rng = Rng(2)
    x = rng.normals((10, 3))
    model = pca_fit(x, d=2)
    with pytest.raises(InputDomainError):
        scan_input_space(model, x)


def test_scan_nested_grid_losses_coincide():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=30, seed=3))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=1)
    bounds = (-4.0, 4.0, -4.0, 4.0)
    coarse = scan_input_space(model, ds.x, bounds=bounds, resolution=(21, 21))
    fine = scan_input_space(model, ds.x, bounds=bounds, resolution=(41, 41))
    for i in range(21):
        for j in range(21):
            assert fine.losses[2 * i, 2 * j] == coarse.losses[i, j]


def test_scan_is_pure_and_deterministic():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=25, seed=4))
    model = build_mlp_autoencoder([2, 4, 1, 4, 2], activation="relu", seed=2)
    g1 = scan_input_space(model, ds.x, resolution=(31, 31))
    g2 = scan_input_space(model, ds.x, resolution=(31, 31))
    assert g1.losses.tobytes() == g2.losses.tobytes()


def test_scan_latent_space_conv_model():
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(3, 4), latent_dim=2, seed=3)
    x_train = Rng(5).uniforms(0.0, 1.0, (20, 64))
    grid = scan_latent_space(model, x_train, resolution=(25, 25), epsilon=0.1)
    assert grid.space == "latent2d"
    assert np.all(np.isfinite(grid.losses)) and np.all(grid.losses >= 0.0)
    assert grid.train_points.shape == (20, 2)


def test_scan_latent_space_rejects_non_2d_latent():
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], seed=0)
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=10, seed=6))
    with pytest.raises(InputDomainError):
        scan_latent_space(model, ds.x)


def _wide_pca():
    # the encode product of 64 features takes another BLAS path at the
    # whole-grid size of a 100x100 scan than at one block's, so the rounding
    # of its losses shows whether the scan went by blocks
    rng = np.random.default_rng(5)
    basis = np.linalg.qr(rng.normal(size=(64, 2)))[0]
    model = PcaModel(mean=rng.normal(size=64), basis=basis, singular_values=np.array([2.0, 1.0]))
    return model, rng.normal(size=(200, 64))


def _by_blocks(node_losses, nodes):
    return np.concatenate(
        [node_losses(nodes[k:k + 1024]) for k in range(0, nodes.shape[0], 1024)]
    )


@pytest.mark.parametrize("side", [32, 100], ids=["one-block", "ten-blocks"])
def test_latent_scan_losses_are_those_of_1024_node_blocks(side):
    model, x = _wide_pca()
    grid = scan_latent_space(model, x, resolution=(side, side), epsilon=0.0)
    nodes = _grid_nodes(grid.xs, grid.ys)
    want = _by_blocks(lambda z: sample_scores(model, decode_batch(model, z)), nodes)
    assert grid.losses.ravel().tobytes() == want.tobytes()
    if side * side <= 1024:
        whole = sample_scores(model, decode_batch(model, nodes))
        assert grid.losses.ravel().tobytes() == whole.tobytes()


def test_input_scan_losses_are_those_of_1024_node_blocks():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=25, seed=4))
    model = build_mlp_autoencoder([2, 4, 1, 4, 2], activation="relu", seed=2)
    grid = scan_input_space(model, ds.x, resolution=(50, 41))
    nodes = _grid_nodes(grid.xs, grid.ys)
    want = _by_blocks(lambda p: sample_scores(model, p), nodes)
    assert grid.losses.ravel().tobytes() == want.tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _latent_scan_peak(model, x, side):
    # epsilon 0 makes no region, so the traced peak is the scan's
    return _traced_peak(
        lambda: scan_latent_space(model, x, resolution=(side, side), epsilon=0.0)
    )


def test_latent_scan_memory_bounded_by_one_block():
    # a whole-grid batch peaked at about 63 MB here; in blocks a 200x200
    # scan adds to a one-block (32x32) scan only its grid-sized arrays
    # (nodes, losses and masks, under 64 bytes a node)
    model, x = _wide_pca()
    assert _latent_scan_peak(model, x, 200) <= _latent_scan_peak(model, x, 32) + 64 * 200 * 200


def test_conv_latent_scan_memory_flat_in_resolution():
    # a whole-grid batch made the 64x64 scan's peak about 3x the 32x32 one's
    model = build_conv_autoencoder(image_hw=(12, 12), channels=(4, 4), seed=3)
    x = Rng(5).uniforms(0.0, 1.0, (20, 144))
    assert _latent_scan_peak(model, x, 64) <= 1.25 * _latent_scan_peak(model, x, 32)


# --- region extraction -------------------------------------------------------


def _tiny_axes(n):
    return grid_axis(0.0, float(n - 1), n)


def test_extract_regions_empty_when_all_above_epsilon():
    losses = np.ones((4, 4))
    regions = extract_regions(losses, _tiny_axes(4), _tiny_axes(4), 0.5, np.zeros((1, 2)), 10.0)
    assert regions == []


def test_extract_regions_two_separated_blocks():
    losses = np.ones((5, 7))
    losses[0, 0:2] = 0.01  # block A
    losses[4, 5:7] = 0.02  # block B
    regions = extract_regions(losses, _tiny_axes(7), _tiny_axes(5), 0.5, np.zeros((1, 2)), 100.0)
    assert len(regions) == 2
    sizes = sorted(len(r.cells) for r in regions)
    assert sizes == [2, 2]


def test_extract_regions_4_connectivity_not_diagonal():
    losses = np.ones((3, 3))
    losses[0, 0] = 0.01
    losses[1, 1] = 0.01  # diagonal neighbor: separate region
    regions = extract_regions(losses, _tiny_axes(3), _tiny_axes(3), 0.5, np.zeros((1, 2)), 100.0)
    assert len(regions) == 2


def test_extract_regions_matches_brute_force_flood_fill():
    rng = Rng(7)
    losses = rng.uniforms(0.0, 1.0, (20, 30))
    eps = 0.35
    regions = extract_regions(
        losses, _tiny_axes(30), _tiny_axes(20), eps, np.zeros((1, 2)), 1e9
    )

    # independent oracle: recursive flood fill over a boolean mask
    mask = losses < eps
    seen = np.zeros_like(mask, dtype=bool)

    def flood(i, j, acc):
        stack = [(i, j)]
        while stack:
            a, b = stack.pop()
            if not (0 <= a < 20 and 0 <= b < 30) or seen[a, b] or not mask[a, b]:
                continue
            seen[a, b] = True
            acc.add((a, b))
            stack.extend([(a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)])

    oracle = []
    for i in range(20):
        for j in range(30):
            if mask[i, j] and not seen[i, j]:
                acc: set = set()
                flood(i, j, acc)
                oracle.append(acc)

    assert len(regions) == len(oracle)
    ours = sorted(sorted(r.cells) for r in regions)
    theirs = sorted(sorted(o) for o in oracle)
    assert ours == theirs


def test_region_representative_and_distances():
    losses = np.ones((4, 4))
    losses[1, 1] = 0.05
    losses[1, 2] = 0.01  # minimum
    train = np.array([[0.0, 0.0]])
    regions = extract_regions(losses, _tiny_axes(4), _tiny_axes(4), 0.5, train, 0.1)
    assert len(regions) == 1
    r = regions[0]
    assert r.representative == (1, 2)
    assert r.representative_point == (2.0, 1.0)
    assert r.representative_loss == 0.01
    # closest cell to the training point is (1,1) at coords (1,1): dist sqrt(2)
    assert r.min_dist_to_train == pytest.approx(np.sqrt(2.0))
    assert r.out_of_bounds(0.1)
    assert not r.out_of_bounds(10.0)


def test_region_contains_training_data_flag():
    losses = np.ones((4, 4))
    losses[2, 2] = 0.01
    train = np.array([[2.1, 1.9]])  # nearest node is (2, 2)
    regions = extract_regions(losses, _tiny_axes(4), _tiny_axes(4), 0.5, train, 10.0)
    assert regions[0].contains_training_data
    far_train = np.array([[0.0, 0.0]])
    regions = extract_regions(losses, _tiny_axes(4), _tiny_axes(4), 0.5, far_train, 10.0)
    assert not regions[0].contains_training_data


def test_region_soundness_against_is_undetected():
    # representative point's score through is_undetected equals the grid loss
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=40, seed=8))
    model = pca_fit(ds.x, d=1)
    grid = scan_input_space(model, ds.x, resolution=(61, 61), epsilon=1e-8)
    table = score(model, Dataset(x=ds.x))
    for region in grid.out_of_bounds_regions():
        a = representative_input(grid, model, region)
        verdict = is_undetected(a, model, table)
        assert abs(verdict.score - region.representative_loss) < 1e-10


def test_monotone_refinement_of_sub_epsilon_regions():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=30, seed=9))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=4)
    bounds = (-5.0, 5.0, -5.0, 5.0)
    eps = 0.5
    coarse = scan_input_space(model, ds.x, bounds=bounds, resolution=(17, 17), epsilon=eps)
    fine = scan_input_space(model, ds.x, bounds=bounds, resolution=(33, 33), epsilon=eps)
    for region in coarse.regions:
        for i, j in region.cells:
            assert fine.losses[2 * i, 2 * j] < eps


# --- exports and rendering ----------------------------------------------------


def test_scan_input_space_sigmoid_model():
    # same operation, sigmoid activation: the scan contract is unchanged
    ds = generate(SyntheticSpec(family="double_gaussian", samples_per_component=40, seed=12))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="sigmoid", seed=6)
    trained, _ = train(
        model, ds, TrainConfig(epochs=300, batch_size=32, learning_rate=1e-2, seed=0)
    )
    grid = scan_input_space(trained, ds.x, resolution=(51, 51), epsilon=0.1)
    assert np.all(np.isfinite(grid.losses)) and np.all(grid.losses >= 0.0)
    assert grid.space == "input2d"


def test_audit_report_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = {
        "type": "object",
        "required": [
            "space", "bounds", "resolution", "epsilon", "far_threshold",
            "model_file", "seed", "out_of_bounds_found", "regions",
        ],
        "properties": {
            "space": {"enum": ["input2d", "latent2d"]},
            "bounds": {"type": "array", "items": {"type": "number"},
                       "minItems": 4, "maxItems": 4},
            "resolution": {"type": "array", "items": {"type": "integer"},
                           "minItems": 2, "maxItems": 2},
            "epsilon": {"type": "number"},
            "far_threshold": {"type": "number"},
            "out_of_bounds_found": {"type": "boolean"},
            "regions": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": [
                        "cells", "cell_count", "representative",
                        "min_dist_to_train", "contains_training_data",
                        "out_of_bounds",
                    ],
                    "properties": {
                        "cells": {"type": "array"},
                        "cell_count": {"type": "integer"},
                        "representative": {
                            "type": "object",
                            "required": ["i", "j", "x", "y", "loss"],
                        },
                        "min_dist_to_train": {"type": "number"},
                        "contains_training_data": {"type": "boolean"},
                        "out_of_bounds": {"type": "boolean"},
                    },
                },
            },
        },
    }
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=25, seed=13))
    model = pca_fit(ds.x, d=1)
    grid = scan_input_space(model, ds.x, resolution=(31, 31), epsilon=1e-8)
    report = audit_report(grid, model_ref="m.json", seed=3)
    import json as json_mod

    jsonschema.validate(json_mod.loads(json_mod.dumps(report)), schema)


def test_write_grid_csv_round_trip(tmp_path):
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=10, seed=10))
    model = pca_fit(ds.x, d=1)
    grid = scan_input_space(model, ds.x, resolution=(5, 4))
    p = tmp_path / "grid.csv"
    write_grid_csv(grid, p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "x,y,loss"
    assert len(lines) == 1 + 5 * 4
    x0, y0, l0 = lines[1].split(",")
    assert float(x0) == grid.xs[0] and float(y0) == grid.ys[0]
    assert float(l0) == grid.losses[0, 0]


def test_audit_report_schema(tmp_path):
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=30, seed=11))
    model = pca_fit(ds.x, d=1)
    grid = scan_input_space(model, ds.x, resolution=(41, 41), epsilon=1e-8)
    report = audit_report(grid, model_ref="m.json", seed=7)
    assert report["space"] == "input2d"
    assert report["out_of_bounds_found"] is True
    assert report["model_file"] == "m.json"
    for r in report["regions"]:
        assert r["cell_count"] == len(r["cells"])
        assert {"i", "j", "x", "y", "loss"} <= set(r["representative"])


def test_render_heatmap_2x2(tmp_path):
    grid_losses = np.array([[0.01, 1.0], [2.0, 3.0]])
    xs = grid_axis(0.0, 1.0, 2)
    ys = grid_axis(0.0, 1.0, 2)
    grid = AuditGrid(
        space="input2d",
        bounds=(0.0, 1.0, 0.0, 1.0),
        xs=xs,
        ys=ys,
        losses=grid_losses,
        epsilon=0.1,
        far_threshold=1.0,
        regions=[],
        train_points=np.array([[0.5, 0.5]]),
    )
    p = tmp_path / "map.svg"
    render_heatmap(grid, p)
    root = ET.fromstring(p.read_text())
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 4
    assert any(r.get("fill") == "#ff0000" for r in rects)
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == 1
    # determinism
    p2 = tmp_path / "map2.svg"
    render_heatmap(grid, p2)
    assert p.read_bytes() == p2.read_bytes()


# --- references: the per-cell region extraction and writers -------------------


def reference_extract_regions(losses, xs, ys, epsilon, train_points, far_threshold):
    ny, nx = losses.shape
    below = losses < epsilon
    labels = -np.ones((ny, nx), dtype=np.int64)
    regions = []

    # map each training point to its nearest grid node
    occupied = set()
    if train_points.shape[0]:
        dx = xs[1] - xs[0] if nx > 1 else 1.0
        dy = ys[1] - ys[0] if ny > 1 else 1.0
        j_idx = np.clip(np.rint((train_points[:, 0] - xs[0]) / dx), 0, nx - 1).astype(int)
        i_idx = np.clip(np.rint((train_points[:, 1] - ys[0]) / dy), 0, ny - 1).astype(int)
        occupied = set(zip(i_idx.tolist(), j_idx.tolist()))

    label = 0
    for i0 in range(ny):
        for j0 in range(nx):
            if not below[i0, j0] or labels[i0, j0] >= 0:
                continue
            cells = []
            queue = deque([(i0, j0)])
            labels[i0, j0] = label
            while queue:
                i, j = queue.popleft()
                cells.append((i, j))
                for ni, nj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    if 0 <= ni < ny and 0 <= nj < nx and below[ni, nj] and labels[ni, nj] < 0:
                        labels[ni, nj] = label
                        queue.append((ni, nj))
            regions.append(_reference_annotate_region(cells, losses, xs, ys, train_points, occupied))
            label += 1
    return regions


def _reference_annotate_region(cells, losses, xs, ys, train_points, occupied):
    best = min(cells, key=lambda c: (losses[c[0], c[1]], c))
    coords = np.array([[xs[j], ys[i]] for i, j in cells])
    min_dist = float("inf")
    for lo in range(0, coords.shape[0], 4096):
        chunk = coords[lo : lo + 4096]
        d2 = (
            np.sum(chunk * chunk, axis=1)[:, None]
            - 2.0 * chunk @ train_points.T
            + np.sum(train_points * train_points, axis=1)[None, :]
        )
        min_dist = min(min_dist, float(np.sqrt(max(float(d2.min()), 0.0))))
    contains = any(c in occupied for c in cells)
    return dict(
        cells=cells,
        representative=best,
        representative_point=(float(xs[best[1]]), float(ys[best[0]])),
        representative_loss=float(losses[best[0], best[1]]),
        min_dist_to_train=min_dist,
        contains_training_data=contains,
    )


def reference_write_grid_csv(grid, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("x,y,loss\n")
        ny, nx = grid.losses.shape
        for i in range(ny):
            for j in range(nx):
                f.write(
                    f"{repr(float(grid.xs[j]))},{repr(float(grid.ys[i]))},"
                    f"{repr(float(grid.losses[i, j]))}\n"
                )


_REF_SUB_EPSILON_COLOR = "#ff0000"
_REF_LOW_COLOR = (255, 255, 204)
_REF_HIGH_COLOR = (16, 36, 100)
_REF_LOG_FLOOR = 1e-16


def _reference_cell_color(loss, lo, hi, epsilon):
    if loss < epsilon:
        return _REF_SUB_EPSILON_COLOR
    top = np.log10(hi + _REF_LOG_FLOOR)
    bottom = np.log10(lo + _REF_LOG_FLOOR)
    t = 0.0 if top == bottom else (np.log10(loss + _REF_LOG_FLOOR) - bottom) / (top - bottom)
    t = min(max(float(t), 0.0), 1.0)
    rgb = [round(a + (b - a) * t) for a, b in zip(_REF_LOW_COLOR, _REF_HIGH_COLOR)]
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def reference_render_heatmap(grid, path):
    nx, ny = grid.resolution
    cell_px = max(1.0, 600.0 / max(nx, ny))
    width = nx * cell_px
    height = ny * cell_px
    lo = float(grid.losses.min())
    hi = float(grid.losses.max())
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.2f}" '
        f'height="{height:.2f}" viewBox="0 0 {width:.2f} {height:.2f}">\n',
    ]
    for i in range(ny):
        y = (ny - 1 - i) * cell_px
        for j in range(nx):
            color = _reference_cell_color(float(grid.losses[i, j]), lo, hi, grid.epsilon)
            parts.append(
                f'<rect x="{j * cell_px:.2f}" y="{y:.2f}" width="{cell_px:.2f}" '
                f'height="{cell_px:.2f}" fill="{color}"/>\n'
            )
    xmin, xmax, ymin, ymax = grid.bounds
    for px, py in grid.train_points:
        cx = (px - xmin) / (xmax - xmin) * width
        cy = height - (py - ymin) / (ymax - ymin) * height
        if 0.0 <= cx <= width and 0.0 <= cy <= height:
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="1.5" fill="#000000"/>\n')
    parts.append("</svg>\n")
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(parts))


def assert_regions_match_reference(losses, xs, ys, epsilon, train_points):
    ours = extract_regions(losses, xs, ys, epsilon, train_points, 1.0)
    theirs = reference_extract_regions(losses, xs, ys, epsilon, train_points, 1.0)
    assert len(ours) == len(theirs)
    for r, ref in zip(ours, theirs):
        assert {field: getattr(r, field) for field in ref} == ref
        assert all(type(v) is int for c in r.cells for v in c)
        assert type(r.min_dist_to_train) is float
        assert type(r.contains_training_data) is bool
    return ours


@st.composite
def masked_grids(draw):
    """Losses on a 1-12 x 1-12 grid with a drawn share of sub-epsilon cells,
    plus training points drawn inside and outside the grid's bounds."""
    ny = draw(st.integers(1, 12))
    nx = draw(st.integers(1, 12))
    density = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    losses = rng.uniform(0.0, 1.0, (ny, nx))
    losses[rng.uniform(0.0, 1.0, (ny, nx)) < density] *= 0.1
    # a few exact ties, so that the representative's (i, j) tie-break counts
    losses[rng.uniform(0.0, 1.0, (ny, nx)) < 0.2] = 0.0
    xs = np.linspace(-2.0, 3.0, nx) if nx > 1 else np.array([0.5])
    ys = np.linspace(-1.0, 4.0, ny) if ny > 1 else np.array([1.5])
    m = draw(st.integers(1, 8))
    train = rng.uniform(-6.0, 7.0, (m, 2))
    return losses, xs, ys, train


@given(masked_grids())
def test_extract_regions_matches_reference(case):
    losses, xs, ys, train = case
    assert_regions_match_reference(losses, xs, ys, 0.1, train)


@pytest.mark.parametrize(
    "shape, fill",
    [((6, 9), 0.0), ((6, 9), 1.0), ((1, 40), 0.0), ((40, 1), 0.0)],
    ids=["all-below", "all-above", "single-row", "single-column"],
)
def test_extract_regions_matches_reference_edge_grids(shape, fill):
    ny, nx = shape
    losses = np.full(shape, fill)
    if fill == 0.0:
        losses[ny // 2, nx // 2] = 0.05  # a unique minimum off the first cell
    xs = grid_axis(0.0, 1.0, nx) if nx > 1 else np.array([0.0])
    ys = grid_axis(0.0, 1.0, ny) if ny > 1 else np.array([0.0])
    train = np.array([[0.2, 0.3], [5.0, -5.0]])
    regions = assert_regions_match_reference(losses, xs, ys, 0.5, train)
    assert len(regions) == (0 if fill == 1.0 else 1)


def test_extract_regions_matches_reference_checkerboard():
    n = 60
    ii, jj = np.indices((n, n))
    losses = np.where((ii + jj) % 2 == 0, 0.01 + 1e-4 * ii, 1.0)
    xs = grid_axis(-3.0, 3.0, n)
    train = np.array([[0.0, 0.0], [2.9, -2.9], [10.0, 10.0]])
    regions = assert_regions_match_reference(losses, xs, xs, 0.5, train)
    assert len(regions) == n * n // 2
    assert sum(r.contains_training_data for r in regions) == 2


def _export_grid(losses, epsilon, train_points, bounds=(-1.0, 2.0, -3.0, 0.5)):
    ny, nx = losses.shape
    return AuditGrid(
        space="input2d",
        bounds=bounds,
        xs=grid_axis(bounds[0], bounds[1], nx),
        ys=grid_axis(bounds[2], bounds[3], ny),
        losses=losses,
        epsilon=epsilon,
        far_threshold=1.0,
        regions=[],
        train_points=train_points,
    )


def _spanning_losses(shape, seed):
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-12.0, 6.0, shape)


_INSIDE = np.array([[0.1, -1.0], [1.9, 0.4], [-1.0, -3.0]])
_OUTSIDE = np.array([[-5.0, -1.0], [0.0, 9.0], [2.0000001, 0.0]])
_WRITER_GRIDS = {
    "hi-equals-lo": _export_grid(np.full((5, 6), 0.25), 0.1, _INSIDE),
    # epsilon 0 keeps the zeros out of red, so they take the log floor
    "exact-zeros": _export_grid(np.where(np.eye(6, 8) > 0, 0.0, 0.5 + np.arange(8.0)), 0.0, _INSIDE),
    "mixed-span": _export_grid(_spanning_losses((30, 25), 1), 1e-3, _INSIDE),
    "non-square": _export_grid(_spanning_losses((7, 300), 2), 1e-6, _INSIDE),
    "points-outside": _export_grid(_spanning_losses((9, 11), 3), 1e-2, np.vstack([_OUTSIDE, _INSIDE])),
}


@pytest.mark.parametrize("name", list(_WRITER_GRIDS))
def test_writers_match_reference_bytes(tmp_path, name):
    grid = _WRITER_GRIDS[name]
    write_grid_csv(grid, tmp_path / "grid.csv")
    reference_write_grid_csv(grid, tmp_path / "ref.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    render_heatmap(grid, tmp_path / "map.svg")
    reference_render_heatmap(grid, tmp_path / "ref.svg")
    assert (tmp_path / "map.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_writer_grids_reach_their_branches(tmp_path):
    def svg(name):
        render_heatmap(_WRITER_GRIDS[name], tmp_path / f"{name}.svg")
        return ET.fromstring((tmp_path / f"{name}.svg").read_text())

    def fills(root):
        return {e.get("fill") for e in root.iter() if e.tag.endswith("rect")}

    def circles(root):
        return [e for e in root.iter() if e.tag.endswith("circle")]

    assert fills(svg("hi-equals-lo")) == {"#ffffcc"}  # top == bottom: t = 0
    assert "#ffffcc" in fills(svg("exact-zeros")) and "#ff0000" not in fills(svg("exact-zeros"))
    assert "#ff0000" in fills(svg("mixed-span")) and len(fills(svg("mixed-span"))) > 50
    rects = [e for e in svg("non-square").iter() if e.tag.endswith("rect")]
    assert rects[0].get("width") == "2.00" and len(rects) == 7 * 300
    assert len(circles(svg("points-outside"))) == len(_INSIDE)


# --- region distances: cache-sized chunks against fixed 4096-row chunks -------


def reference_min_dist_to_train(coords, train_points):
    """A region's distance to the training points as taken before the scan
    used `numlin.row_chunks`: 4096 cells a chunk, so a region of 4096 n + 1
    cells ended in a 1-row product."""
    neg2_train_t = -2.0 * train_points.T
    train_norms = np.sum(train_points * train_points, axis=1)
    min_dist = float("inf")
    for lo in range(0, coords.shape[0], 4096):
        chunk = coords[lo : lo + 4096]
        d2 = chunk @ neg2_train_t
        d2 += np.sum(chunk * chunk, axis=1)[:, None]
        d2 += train_norms[None, :]
        min_dist = min(min_dist, float(np.sqrt(max(float(d2.min()), 0.0))))
    return min_dist


def _region_coords(region, xs, ys):
    i, j = np.array(region.cells).T
    return np.column_stack((xs[j], ys[i]))


def assert_distances_match_reference(losses, xs, ys, epsilon, train):
    regions = extract_regions(losses, xs, ys, epsilon, train, 1.0)
    for r in regions:
        want = reference_min_dist_to_train(_region_coords(r, xs, ys), train)
        assert np.float64(r.min_dist_to_train).tobytes() == np.float64(want).tobytes()
    return regions


@pytest.mark.parametrize("budget", [None, 16, 1000], ids=["default", "budget-16", "budget-1000"])
@pytest.mark.parametrize("m, side", [(1, 70), (2, 70), (1000, 70), (5000, 30)])
def test_region_distances_bytes_equal_4096_row_chunks(monkeypatch, budget, m, side):
    # a mask near the percolation threshold: 1-cell regions up to ones of
    # dozens to hundreds of cells, each scanned in several chunks
    rng = np.random.default_rng(m + side)
    losses = rng.uniform(0.0, 1.0, (side, side))
    xs, ys = grid_axis(-4.0, 5.0, side), grid_axis(-3.0, 6.0, side)
    train = rng.normal(size=(m, 2)) * 2.0
    if budget is not None:
        monkeypatch.setattr(numlin, "SCRATCH_ELEMENTS", budget)
    sizes = [len(r.cells) for r in assert_distances_match_reference(losses, xs, ys, 0.55, train)]
    assert min(sizes) == 1 and max(sizes) > 50


@pytest.mark.parametrize("budget", [None, 16], ids=["default", "budget-16"])
@pytest.mark.parametrize("m", [1, 2, 1000])
@pytest.mark.parametrize("cells", [1, 2, 3, 66, 4096, 4098, 8192])
def test_one_region_distance_bytes_equal_4096_row_chunks(monkeypatch, budget, m, cells):
    ny = 2 if cells % 2 == 0 and cells > 2 else 1
    nx = cells // ny
    xs = grid_axis(-3.0, 7.0, nx) if nx > 1 else np.array([0.25])
    ys = grid_axis(-1.0, 1.0, ny) if ny > 1 else np.array([0.5])
    train = np.random.default_rng(cells + m).normal(size=(m, 2)) * 3.0
    if budget is not None:
        monkeypatch.setattr(numlin, "SCRATCH_ELEMENTS", budget)
    (region,) = assert_distances_match_reference(np.zeros((ny, nx)), xs, ys, 0.5, train)
    assert len(region.cells) == cells


@pytest.mark.parametrize("n", [1, 2])
def test_region_of_4096n_plus_1_cells_ends_in_no_one_row_product(n):
    # the last cell, the one nearest the data, shares a chunk with the cells
    # before it, so it has the bits of the whole region in one product; the
    # 4096-row scan took it as a 1-row product, which OpenBLAS rounds on
    # another path (on x86-64 it moved this distance by about 4e-14)
    cells = 4096 * n + 1
    xs, ys = grid_axis(-3.0, 7.0, cells), np.array([0.37])
    rng = np.random.default_rng(3)
    train = np.column_stack(
        (xs[-1] + 0.3 + rng.normal(size=33) * 0.01, 0.37 + rng.normal(size=33) * 0.5)
    )
    train[1:, 0] += 20.0
    (region,) = extract_regions(np.zeros((1, cells)), xs, ys, 0.5, train, 1.0)
    assert region.cells[-1] == (0, cells - 1)
    coords = _region_coords(region, xs, ys)
    d2 = coords @ (-2.0 * train.T)
    d2 += np.sum(coords * coords, axis=1)[:, None]
    d2 += np.sum(train * train, axis=1)[None, :]
    assert int(d2.min(axis=1).argmin()) == cells - 1
    assert region.min_dist_to_train == float(np.sqrt(max(float(d2.min()), 0.0)))
    old = reference_min_dist_to_train(coords, train)
    assert abs(region.min_dist_to_train - old) <= 1e-12 * old


def test_region_distance_scratch_within_budget():
    # one 40 000-cell region against 5000 training points: the 4096-row scan
    # allocated 164 MB a chunk (325 MB at peak, two chunks alive at once);
    # in cache-sized chunks the scan adds at most one chunk budget and the
    # cells' coordinates to the peak of the same region against 2 points
    side, m = 200, 5000
    losses = np.zeros((side, side))
    xs = grid_axis(-1.0, 1.0, side)
    train = np.random.default_rng(17).normal(size=(m, 2))

    def peak(points):
        return _traced_peak(lambda: extract_regions(losses, xs, xs, 0.5, points, 1.0))

    coords_bytes = side * side * 2 * 8
    assert peak(train) - peak(train[:2]) <= 8 * numlin.SCRATCH_ELEMENTS + coords_bytes


# --- region distances: only the cells that can hold the minimum are scored ----


@contextlib.contextmanager
def scored_rows():
    """The row count of every distance product taken inside the block."""
    rows = []
    real = audit._min_squared_distance

    def spy(chunk, neg2_train_t, train_norms):
        rows.append(chunk.shape[0])
        return real(chunk, neg2_train_t, train_norms)

    audit._min_squared_distance = spy
    try:
        yield rows
    finally:
        audit._min_squared_distance = real


@st.composite
def pruned_grids(draw):
    """A 1-16 x 1-16 grid at a drawn coordinate scale, with a drawn share of
    sub-epsilon cells and 1-40 training points inside, next to and far
    outside its box. At the scale 1e150 every coordinate is at least 1e150."""
    ny = draw(st.integers(1, 16))
    nx = draw(st.integers(1, 16))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e3, 1e150]))
    density = draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = (rng.uniform(1.0, 2.0, 2) if scale == 1e150 else rng.uniform(-2.0, 2.0, 2)) * scale
    span = rng.uniform(0.5, 5.0, 2) * scale
    xs = grid_axis(lo[0], lo[0] + span[0], nx) if nx > 1 else lo[:1]
    ys = grid_axis(lo[1], lo[1] + span[1], ny) if ny > 1 else lo[1:]
    where = rng.uniform(-0.3, 1.3, (m, 2))  # box-relative
    where[rng.uniform(0.0, 1.0, m) < 0.2] *= 10.0
    train = lo + where * span
    losses = rng.uniform(0.0, 1.0, (ny, nx))
    return losses, xs, ys, density, train


@given(pruned_grids(), st.sampled_from([16, 256]))
def test_pruned_region_distance_bytes_equal_one_product(case, budget):
    # a scratch budget this small prunes every region of more than a few
    # cells, as a large region is pruned at the default budget
    losses, xs, ys, epsilon, train = case
    with scored_rows() as rows, mock.patch.object(numlin, "SCRATCH_ELEMENTS", budget):
        regions = extract_regions(losses, xs, ys, epsilon, train, 1.0)
    for r in regions:  # under 4096 cells: the reference takes each in one product
        want = reference_min_dist_to_train(_region_coords(r, xs, ys), train)
        assert np.float64(r.min_dist_to_train).tobytes() == np.float64(want).tobytes()
    # a region of two or more cells is never scored in a 1-row product
    assert rows.count(1) == sum(len(r.cells) == 1 for r in regions)
    if xs[0] >= 1e150:
        assert sum(rows) == sum(len(r.cells) for r in regions)


@pytest.mark.parametrize("budget, scored", [(None, [8]), (4, [2])], ids=["one-product", "pruned"])
@pytest.mark.parametrize("shape", [(1, 8), (8, 1)], ids=["row", "column"])
def test_pruned_strip_scores_two_rows(monkeypatch, budget, scored, shape):
    # a training point on the end node of an 8-cell strip bounds the strip's
    # distance by 0: only that node and its neighbour can beat it, and they
    # are scored together, never as a 1-row product; a strip whose 8 x 1
    # squared distances fit in one scratch chunk is scored whole
    xs = grid_axis(0.0, 7.0, 8) if shape[1] == 8 else np.array([0.0])
    ys = grid_axis(0.0, 7.0, 8) if shape[0] == 8 else np.array([0.0])
    train = np.array([[0.0, 0.0]])
    if budget is not None:
        monkeypatch.setattr(numlin, "SCRATCH_ELEMENTS", budget)
    with scored_rows() as rows:
        (region,) = extract_regions(np.zeros(shape), xs, ys, 0.5, train, 1.0)
    assert rows == scored
    want = reference_min_dist_to_train(_region_coords(region, xs, ys), train)
    assert np.float64(region.min_dist_to_train).tobytes() == np.float64(want).tobytes()


def test_pruned_distance_exact_on_an_uneven_axis(monkeypatch):
    # the nearest-node mapping assumes an even axis: on this one it puts the
    # point at x = 12.95 on the node at 10, 2.95 away, while the node at 13
    # lies 0.05 from it, nearer than the point at x = 0.5 to its own node;
    # the reach widens by the farthest such mapping, so 13 is scored
    xs, ys = np.array([0.0, *range(10, 21)], dtype=float), np.array([0.0])
    train = np.array([[0.5, 0.0], [12.95, 0.0]])
    monkeypatch.setattr(numlin, "SCRATCH_ELEMENTS", 16)  # below 12 cells x 2 points
    (region,) = extract_regions(np.zeros((1, xs.size)), xs, ys, 0.5, train, 1.0)
    want = reference_min_dist_to_train(_region_coords(region, xs, ys), train)
    assert np.float64(region.min_dist_to_train).tobytes() == np.float64(want).tobytes()
    assert region.min_dist_to_train < 0.051


@pytest.mark.parametrize("far", [False, True], ids=["dense", "far"])
def test_plane_filling_region_scores_few_cells_only_near_data(far):
    # one 200 x 200 region over 1000 training points spread as `pca-wide`'s
    # encodings are in its plane scores under a quarter of its cells; moved
    # far from the data, whose nearest nodes are then the plane's corner, it
    # scores all of them
    side = 200
    xs = grid_axis(-30.0, 30.0, side)
    train = np.random.default_rng(23).normal(size=(1000, 2)) * [5.0, 3.0] + (1000.0 if far else 0.0)
    with scored_rows() as rows:
        (region,) = extract_regions(np.zeros((side, side)), xs, xs, 0.5, train, 1.0)
    if far:
        assert sum(rows) == side * side
    else:
        assert sum(rows) < side * side / 4
    want = reference_min_dist_to_train(_region_coords(region, xs, xs), train)
    assert np.float64(region.min_dist_to_train).tobytes() == np.float64(want).tobytes()
