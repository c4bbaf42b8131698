"""Tests for synthetic dataset generation and file ingestion."""

import csv
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeaudit import datagen
from aeaudit.datagen import (
    Dataset,
    SyntheticSpec,
    _covariance_factor,
    _is_plain_csv,
    _load_csv_exact,
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


def _outcome(read, path):
    """What a CSV reader makes of a file: the array's shape, contiguity and
    bytes, or the text of the FormatError it raises."""
    try:
        x = read(path).x
    except FormatError as exc:
        return str(exc)
    return x.shape, x.flags.c_contiguous, x.tobytes()


def _assert_readers_agree(path):
    """load_csv gives what the exact reader gives, and a plain file the
    exact reader accepts is read without it."""
    exact = _outcome(_load_csv_exact, path)
    assert _outcome(load_csv, path) == exact
    if not isinstance(exact, str) and _is_plain_csv(path.read_bytes()):
        with mock.patch.object(datagen, "_load_csv_exact", side_effect=AssertionError("fell back")):
            assert _outcome(load_csv, path) == exact
    return exact


FLOAT_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
HARD_CELLS = st.sampled_from([
    "-0.0", "0", "+1", "-.5", "5.", "1E5", "1e+5", "1e-5", "4.9e-324", "2.4703282292062328e-324",
    "2.2250738585072011e-308", "9007199254740993", "1.7976931348623158e308", "1e400", "-1e400",
    "1e-400", "0." + "0" * 30 + "1", "1" * 40, "9" * 40 + "e-330",
])
JUNK_CELLS = st.text(alphabet="0123456789eE+-.", max_size=5)


@st.composite
def plain_csvs(draw):
    """CSV bytes over the plain alphabet: rows of random width, blank lines,
    and an optional trailing newline; a clean file has finite decimal cells
    and rows of one width, a dirty one any cells and widths."""
    dirty = draw(st.booleans())
    cells = st.one_of(FLOAT_CELLS, HARD_CELLS, JUNK_CELLS) if dirty else FLOAT_CELLS
    width = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
            continue
        n = draw(st.integers(1, 6)) if dirty and draw(st.booleans()) else width
        lines.append(",".join(draw(st.lists(cells, min_size=n, max_size=n))))
    return ("\n".join(lines) + ("\n" if draw(st.booleans()) else "")).encode()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=300)
@given(data=plain_csvs())
def test_plain_csv_reads_as_the_exact_reader_does(csv_dir, data):
    path = csv_dir / "plain.csv"
    path.write_bytes(data)
    _assert_readers_agree(path)


LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("data, expected", [
    pytest.param(b"1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]], id="crlf"),
    pytest.param(b"\xef\xbb\xbf1,2\n", "non-numeric cell in row 1", id="utf8-bom"),
    pytest.param(b'"1","2"\n3,4\n', [[1.0, 2.0], [3.0, 4.0]], id="quoted"),
    pytest.param(b"1, 2\n", [[1.0, 2.0]], id="space"),
    pytest.param(b"1_0,2\n", [[10.0, 2.0]], id="underscore"),
    pytest.param(b"1,2\x00\n", "non-numeric cell in row 1", id="nul"),
    pytest.param(b"1.5," * (LIMIT // 4) + b"2\n", (1, LIMIT // 4 + 1), id="long-line-short-cells"),
    pytest.param(b"1,2\n3," + b"6" * (LIMIT + 1) + b"\n", "unreadable CSV in row 2",
                 id="cell-over-limit"),
    pytest.param(b"", "no data rows", id="empty"),
    pytest.param(b"\n\n", "no data rows", id="newlines-only"),
])
def test_csv_outside_the_plain_gate_reads_as_the_exact_reader_does(tmp_path, data, expected):
    path = tmp_path / "edge.csv"
    path.write_bytes(data)
    assert not _is_plain_csv(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = _assert_readers_agree(path)
    if isinstance(expected, str):
        assert expected in outcome
    elif isinstance(expected, tuple):
        assert outcome[0] == expected
    else:
        x = np.array(expected)
        assert outcome == (x.shape, True, x.tobytes())


def test_save_csv_writes_the_bytes_of_per_value_repr(tmp_path):
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=200, dtype=np.uint64).view(np.float64)
    special = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, -1e-310, 1e16, 1e-5, 1e22, 0.1, -2.5]
    x = np.concatenate([bits[np.isfinite(bits)][:190], special]).reshape(-1, 5)
    for names in (None, ["a", "b", "c", "d", "e"]):
        save_csv(Dataset(x=x, feature_names=names), tmp_path / "new.csv")
        head = "" if names is None else ",".join(names) + "\n"
        old = head + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in x)
        assert (tmp_path / "new.csv").read_bytes() == old.encode()


def test_standardization_stats_zero_variance_guard():
    x = np.array([[1.0, 5.0], [1.0, 7.0]])
    mean, std = standardization_stats(x)
    assert np.array_equal(mean, [1.0, 6.0])
    assert std[0] == 1.0 and std[1] == 1.0
