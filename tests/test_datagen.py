"""Tests for synthetic dataset generation and file ingestion."""

import struct

import numpy as np
import pytest

from aeaudit.datagen import (
    Dataset,
    SyntheticSpec,
    _covariance_factor,
    generate,
    load_csv,
    load_mnist,
    save_csv,
    save_idx,
    standardization_stats,
)
from aeaudit.errors import FormatError, InputDomainError
from aeaudit.rng import Rng


def test_gaussian_sample_mean_near_configured_mean():
    spec = SyntheticSpec(family="gaussian", samples_per_component=100, seed=7)
    ds = generate(spec)
    assert ds.x.shape == (100, 2)
    assert np.linalg.norm(ds.x.mean(axis=0)) < 0.5


def test_gaussian_custom_mean_and_covariance():
    spec = SyntheticSpec(
        family="gaussian",
        samples_per_component=4000,
        seed=3,
        means=((5.0, -1.0),),
        covariances=(((4.0, 0.0), (0.0, 0.25)),),
    )
    ds = generate(spec)
    assert np.allclose(ds.x.mean(axis=0), [5.0, -1.0], atol=0.2)
    assert np.allclose(ds.x.std(axis=0), [2.0, 0.5], atol=0.15)
    # identity-like covariances factor exactly, so their draws are unscaled normals
    assert _covariance_factor(np.eye(2)).tobytes() == np.eye(2).tobytes()
    assert _covariance_factor(9.0 * np.eye(2)).tobytes() == (3.0 * np.eye(2)).tobytes()


def test_double_gaussian_components_and_labels():
    spec = SyntheticSpec(family="double_gaussian", samples_per_component=50, seed=1)
    ds = generate(spec)
    assert ds.x.shape == (100, 2)
    assert ds.labels is not None and set(ds.labels.tolist()) == {0, 1}
    assert np.allclose(ds.x[:50].mean(axis=0), [-3.0, -3.0], atol=0.7)
    assert np.allclose(ds.x[50:].mean(axis=0), [3.0, 3.0], atol=0.7)


def test_diagonal_rows_exactly_on_diagonal():
    spec = SyntheticSpec(family="diagonal", samples_per_component=200, seed=9)
    ds = generate(spec)
    assert np.all(ds.x[:, 0] == ds.x[:, 1])
    lo, hi = spec.alpha_range
    assert ds.x[:, 0].min() >= lo and ds.x[:, 0].max() < hi


def test_banana_noiseless_limit_is_exact_parabola():
    spec = SyntheticSpec(family="banana", samples_per_component=100, seed=4, noise_scale=0.0)
    ds = generate(spec)
    assert np.all(ds.x[:, 1] == ds.x[:, 0] ** 2)


def test_banana_default_noise():
    ds = generate(SyntheticSpec(family="banana", samples_per_component=500, seed=2))
    resid = ds.x[:, 1] - ds.x[:, 0] ** 2
    assert abs(float(resid.std()) - 0.1) < 0.03


def test_seed_determinism_bit_identical():
    spec = SyntheticSpec(family="double_gaussian", samples_per_component=30, seed=123)
    assert generate(spec).x.tobytes() == generate(spec).x.tobytes()
    spec2 = SyntheticSpec(family="double_gaussian", samples_per_component=30, seed=124)
    assert generate(spec).x.tobytes() != generate(spec2).x.tobytes()


def test_invalid_family_and_covariance_rejected():
    with pytest.raises(InputDomainError):
        SyntheticSpec(family="mystery")
    bad_cov = SyntheticSpec(
        family="gaussian",
        seed=0,
        means=((0.0, 0.0),),
        covariances=(((1.0, 2.0), (2.0, 1.0)),),  # eigenvalues 3, -1
    )
    with pytest.raises(InputDomainError):
        generate(bad_cov)
    asym = SyntheticSpec(
        family="gaussian",
        seed=0,
        means=((0.0, 0.0),),
        covariances=(((1.0, 0.5), (0.2, 1.0)),),
    )
    with pytest.raises(InputDomainError):
        generate(asym)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(family="banana", x_range=(2.0, -2.0)), "x_range must be increasing"),
        (dict(family="banana", x_range=(1.0, 1.0)), "x_range must be increasing"),
        (dict(family="banana", noise_scale=-0.1), "noise_scale must be >= 0"),
        (dict(family="diagonal", alpha_range=(1.0, 0.0)), "alpha_range must be increasing"),
        (dict(family="gaussian", means=((0.0, 0.0, 0.0),), covariances=(((1.0, 0.0), (0.0, 1.0)),)),
         "mean 0 has length 3, expected 2"),
        (dict(family="double_gaussian", covariances=(((1.0, 0.0), (0.0, 1.0)),)),
         "1 covariances for 2 component means"),
        (dict(family="gaussian", means=()), "gaussian needs at least one component mean"),
    ],
)
def test_spec_rejected_when_constructed(fields, message):
    with pytest.raises(InputDomainError, match=message):
        SyntheticSpec(**fields)


def test_spec_ignores_the_range_its_family_does_not_use():
    spec = SyntheticSpec(family="gaussian", samples_per_component=5, x_range=(2.0, -2.0),
                         alpha_range=(1.0, 0.0), noise_scale=-1.0)
    assert generate(spec).x.shape == (5, 2)


def test_dataset_validation():
    with pytest.raises(InputDomainError):
        Dataset(x=np.array([[1.0, np.inf]]))
    with pytest.raises(InputDomainError):
        Dataset(x=np.eye(3), labels=[1, 2])


# --- IDX ---------------------------------------------------------------


def _write_idx_pair(tmp_path, images, labels):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    save_idx(images, labels, img, lab)
    return img, lab


def test_idx_round_trip_header_and_scaling(tmp_path):
    rng = Rng(0)
    images = (rng.uniforms(0.0, 1.0, (12, 5, 4)) * 255).astype(np.uint8)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2], dtype=np.uint8)
    img, lab = _write_idx_pair(tmp_path, images, labels)

    raw = img.read_bytes()
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    assert (magic, count, rows, cols) == (2051, 12, 5, 4)
    lab_magic, lab_count = struct.unpack(">II", lab.read_bytes()[:8])
    assert (lab_magic, lab_count) == (2049, 12)

    ds = load_mnist(img, lab)
    assert ds.x.shape == (12, 20)
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
    assert np.array_equal(ds.labels, labels)
    # exact scaling: byte/255
    assert np.array_equal(ds.x, images.reshape(12, 20).astype(np.float64) / 255.0)


def test_idx_digit_filter_and_cap(tmp_path):
    images = np.zeros((30, 3, 3), dtype=np.uint8)
    labels = np.array([i % 3 + 4 for i in range(30)], dtype=np.uint8)  # 4,5,6 cycling
    img, lab = _write_idx_pair(tmp_path, images, labels)

    ds = load_mnist(img, lab, keep_digits={4, 5})
    assert set(ds.labels.tolist()) == {4, 5}
    assert ds.num_samples == 20

    ds_cap = load_mnist(img, lab, keep_digits={4, 5, 6}, max_per_digit=2)
    assert ds_cap.num_samples == 6

    with pytest.raises(InputDomainError):
        load_mnist(img, lab, keep_digits={9})


def test_idx_bad_magic_names_offset(tmp_path):
    img = tmp_path / "bad.idx"
    img.write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + b"\x00" * 4)
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 2049, 1) + b"\x00")
    with pytest.raises(FormatError, match="offset 0"):
        load_mnist(img, lab)


def test_idx_truncated_file(tmp_path):
    img = tmp_path / "trunc.idx"
    img.write_bytes(struct.pack(">IIII", 2051, 10, 28, 28) + b"\x00" * 100)
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 2049, 10) + b"\x00" * 10)
    with pytest.raises(FormatError, match="offset 16"):
        load_mnist(img, lab)
    short = tmp_path / "short.idx"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(FormatError, match="truncated"):
        load_mnist(short, lab)


def test_idx_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    img.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + b"\x00" * 8)
    lab = tmp_path / "lab.idx"
    lab.write_bytes(struct.pack(">II", 2049, 3) + b"\x00" * 3)
    with pytest.raises(FormatError, match="does not match"):
        load_mnist(img, lab)


# --- CSV ---------------------------------------------------------------


def test_csv_with_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b\n1,2\n3,4\n")
    ds = load_csv(p, has_header=True)
    assert ds.feature_names == ["a", "b"]
    assert np.array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_single_row(tmp_path):
    p = tmp_path / "one.csv"
    p.write_text("1.5,2.5,3.5\n")
    ds = load_csv(p, has_header=False)
    assert ds.x.shape == (1, 3)


def test_csv_round_trip_bitwise(tmp_path):
    rng = Rng(77)
    ds = Dataset(x=rng.normals((13, 4)) * 1e3, feature_names=["w", "x", "y", "z"])
    p = tmp_path / "rt.csv"
    save_csv(ds, p)
    back = load_csv(p, has_header=True)
    assert back.x.tobytes() == ds.x.tobytes()
    assert back.feature_names == ds.feature_names


def test_csv_errors_name_row(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3,4,5\n")
    with pytest.raises(FormatError, match="row 2"):
        load_csv(ragged)
    alpha = tmp_path / "alpha.csv"
    alpha.write_text("1,2\n3,four\n")
    with pytest.raises(FormatError, match="row 2"):
        load_csv(alpha)
    nan = tmp_path / "nan.csv"
    nan.write_text("1,nan\n")
    with pytest.raises(FormatError, match="row 1"):
        load_csv(nan)
    for cell in ("inf", "-inf", "1e999"):
        infinite = tmp_path / "infinite.csv"
        infinite.write_text(f"1,2\n3,4\n5,{cell}\n")
        with pytest.raises(FormatError, match="non-finite value in row 3"):
            load_csv(infinite)
    long_cell = tmp_path / "long-cell.csv"
    long_cell.write_text("1,2\n3,4\n5," + "6" * 140_000 + "\n")  # over csv.field_size_limit()
    with pytest.raises(FormatError, match="unreadable CSV in row 3"):
        load_csv(long_cell)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(FormatError, match="no data rows"):
        load_csv(empty)


def test_standardization_stats_zero_variance_guard():
    x = np.array([[1.0, 5.0], [1.0, 7.0]])
    mean, std = standardization_stats(x)
    assert np.array_equal(mean, [1.0, 6.0])
    assert std[0] == 1.0 and std[1] == 1.0
