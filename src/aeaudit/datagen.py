"""Dataset construction: synthetic 2D families, digit images, CSV ingestion.

Synthetic generation draws exclusively from the pinned PRNG (see rng.py) in a
documented order, so a fixed spec reproduces bit-identical matrices anywhere.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import numlin
from .errors import FormatError, InputDomainError
from .rng import Rng

FAMILIES = ("gaussian", "double_gaussian", "banana", "diagonal")

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """A finite m-by-n sample matrix with optional labels, training data or not.

    Attributes:
        x: Sample matrix, one row per sample.
        labels: Optional integer labels, length m.
        feature_names: Optional column names, length n.
        image_hw: Optional (rows, cols) of the image each row holds.
    """

    x: np.ndarray
    labels: np.ndarray | None = None
    feature_names: list[str] | None = None
    image_hw: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        self.x = numlin.as_matrix(self.x, "dataset")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.x.shape[0],):
                raise InputDomainError(
                    f"labels length {self.labels.shape} does not match {self.x.shape[0]} samples"
                )
        if self.feature_names is not None and len(self.feature_names) != self.x.shape[1]:
            raise InputDomainError(
                f"{len(self.feature_names)} feature names for {self.x.shape[1]} columns"
            )
        if self.image_hw is not None and math.prod(self.image_hw) != self.x.shape[1]:
            raise InputDomainError(f"{self.image_hw} images for {self.x.shape[1]} columns")

    @property
    def num_samples(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset.

    Families:
        gaussian: one 2D Gaussian (means[0], covariances[0]).
        double_gaussian: two 2D Gaussians, samples_per_component each.
        banana: x1 ~ Uniform(x_range), x2 = x1^2 + Normal(0, noise_scale^2).
        diagonal: rows alpha_i * (1, 1), alpha_i ~ Uniform(alpha_range).

    The fields a family uses are checked when the spec is built; the
    covariances' definiteness is checked when it is drawn from.
    """

    family: str
    samples_per_component: int = 100
    seed: int = 0
    means: tuple[tuple[float, ...], ...] | None = None
    covariances: tuple[tuple[tuple[float, ...], ...], ...] | None = None
    noise_scale: float = 0.1
    x_range: tuple[float, float] = (-2.0, 2.0)
    alpha_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputDomainError(
                f"unknown family {self.family!r}, expected one of {FAMILIES}"
            )
        if self.samples_per_component < 1:
            raise InputDomainError("samples_per_component must be >= 1")
        if self.family == "banana":
            if not self.x_range[0] < self.x_range[1]:
                raise InputDomainError(f"x_range must be increasing, got {self.x_range}")
            if not self.noise_scale >= 0:
                raise InputDomainError("noise_scale must be >= 0")
        elif self.family == "diagonal":
            if not self.alpha_range[0] < self.alpha_range[1]:
                raise InputDomainError(f"alpha_range must be increasing, got {self.alpha_range}")
        else:
            means, covs = self.resolved_means(), self.resolved_covariances()
            if not means:
                raise InputDomainError(f"{self.family} needs at least one component mean")
            if len(covs) != len(means):
                raise InputDomainError(f"{len(covs)} covariances for {len(means)} component means")
            for i, (mean, cov) in enumerate(zip(means, covs)):
                numlin.as_vector(mean, f"mean {i}", size=len(cov))

    def resolved_means(self) -> list[np.ndarray]:
        if self.means is not None:
            return [np.asarray(m, dtype=np.float64) for m in self.means]
        if self.family == "gaussian":
            return [np.zeros(2)]
        if self.family == "double_gaussian":
            return [np.array([-3.0, -3.0]), np.array([3.0, 3.0])]
        return []

    def resolved_covariances(self) -> list[np.ndarray]:
        if self.covariances is not None:
            return [np.asarray(c, dtype=np.float64) for c in self.covariances]
        return [np.eye(len(m)) for m in self.resolved_means()]

    def to_json_dict(self) -> dict:
        d = {
            "family": self.family,
            "samples_per_component": self.samples_per_component,
            "seed": self.seed,
        }
        if self.family in ("gaussian", "double_gaussian"):
            d["means"] = [list(m) for m in self.resolved_means()]
            d["covariances"] = [c.tolist() for c in self.resolved_covariances()]
        elif self.family == "banana":
            d["x_range"] = list(self.x_range)
            d["noise_scale"] = self.noise_scale
        elif self.family == "diagonal":
            d["alpha_range"] = list(self.alpha_range)
        return d


def _covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root, so factor @ factor.T == cov."""
    cov = numlin.as_matrix(cov, "covariance")
    if cov.shape[0] != cov.shape[1]:
        raise InputDomainError(f"covariance must be square, got {cov.shape}")
    if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, np.max(np.abs(cov))):
        raise InputDomainError("covariance must be symmetric")
    res = numlin.svd(cov)
    # for symmetric PSD input, u spans the eigenvectors and sigma the eigenvalues
    if np.max(np.abs(res.u @ np.diag(res.sigma) @ res.u.T - cov)) > 1e-8 * (
        1.0 + np.max(np.abs(cov))
    ):
        raise InputDomainError("covariance is not positive semi-definite")
    return res.u * np.sqrt(res.sigma)


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset per the spec; bit-identical for identical specs.

    Draw order: components in declaration order, samples within a component
    in order, coordinates within a sample in order.
    """
    rng = Rng(spec.seed)
    n = spec.samples_per_component

    if spec.family in ("gaussian", "double_gaussian"):
        means = spec.resolved_means()
        factors = [_covariance_factor(c) for c in spec.resolved_covariances()]
        rows = []
        labels = []
        for comp, (mean, factor) in enumerate(zip(means, factors)):
            for _ in range(n):
                z = rng.normals((mean.shape[0],))
                rows.append(mean + factor @ z)
                labels.append(comp)
        x = np.vstack(rows)
        lab = np.array(labels) if len(means) > 1 else None
        return Dataset(x=x, labels=lab)

    if spec.family == "banana":
        lo, hi = spec.x_range
        rows = np.empty((n, 2))
        for i in range(n):
            x1 = rng.uniform(lo, hi)
            rows[i, 0] = x1
            rows[i, 1] = x1 * x1 + spec.noise_scale * rng.normal()
        return Dataset(x=rows)

    # diagonal: every sample occupies the line spanned by (1, 1)
    lo, hi = spec.alpha_range
    rows = np.empty((n, 2))
    for i in range(n):
        alpha = rng.uniform(lo, hi)
        rows[i, 0] = alpha
        rows[i, 1] = alpha
    return Dataset(x=rows)


def _read_idx(path, magic: int) -> np.ndarray:
    """The uint8 array of an IDX file whose magic number must be `magic`.

    The magic's low byte is the array's rank; the header is the magic and
    one big-endian 32-bit size per axis, and the data follows it.
    """
    data = Path(path).read_bytes()
    start = 4 * (1 + (magic & 0xFF))
    if len(data) < start:
        raise FormatError(f"{path}: truncated header, {len(data)} bytes where {start} are needed")
    found, *shape = struct.unpack_from(f">{start // 4}I", data)
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x} at offset 0, expected 0x{magic:08x}")
    if len(data) != start + math.prod(shape):
        raise FormatError(
            f"{path}: expected {start + math.prod(shape)} bytes for shape {shape}, "
            f"found {len(data)} (data at offset {start})"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=start).reshape(shape)


def _write_idx(path, magic: int, array: np.ndarray) -> None:
    """Write a uint8 array as an IDX file with the given magic number."""
    with open(path, "wb") as f:
        f.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
        f.write(array.tobytes())


def load_mnist(
    images_path,
    labels_path,
    keep_digits: set[int] | None = None,
    max_per_digit: int | None = None,
) -> Dataset:
    """Load an IDX image/label file pair as flat rows scaled to [0, 1], with
    the digits as labels and the header's (rows, cols) as image_hw.

    Rows keep file order. keep_digits filters labels; max_per_digit caps each
    retained digit, counting in file order.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC)
    count, rows, cols = images.shape
    if labels.shape[0] != count:
        raise FormatError(
            f"label count {labels.shape[0]} does not match image count {count} "
            f"({labels_path} vs {images_path})"
        )
    pixels = images.reshape(count, rows * cols)

    taken = []
    per_digit: dict[int, int] = {}
    for i in range(count):
        digit = int(labels[i])
        if keep_digits is not None and digit not in keep_digits:
            continue
        if max_per_digit is not None:
            if per_digit.get(digit, 0) >= max_per_digit:
                continue
            per_digit[digit] = per_digit.get(digit, 0) + 1
        taken.append(i)
    if not taken:
        raise InputDomainError("no samples left after digit filtering")

    x = pixels[taken].astype(np.float64) / 255.0
    return Dataset(x=x, labels=labels[taken].astype(np.int64), image_hw=(rows, cols))


def save_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write images (m, h, w) uint8 and labels (m,) uint8 as IDX file pairs."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3 or labels.shape != (images.shape[0],):
        raise InputDomainError("expected images (m, h, w) and labels (m,)")
    _write_idx(images_path, IDX_IMAGES_MAGIC, images)
    _write_idx(labels_path, IDX_LABELS_MAGIC, labels)


def _csv_records(f, path):
    """The records of an open CSV file; a record the csv module cannot
    parse (a cell over `csv.field_size_limit()`, say) is a FormatError."""
    reader = csv.reader(f)
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"{path}: unreadable CSV in row {reader.line_num}: {exc}") from None


# A file made only of these bytes has no quotes, carriage returns, NUL or
# other whitespace, so `csv.reader` splits it only at "," and "\n", as
# `np.loadtxt` does, and both skip blank lines; `loadtxt` converts a cell
# with the function `float()` uses, so they accept the same cells, with the
# same bits.
_PLAIN_CSV_BYTES = b"0123456789eE+-.,\n"


def _is_plain_csv(data: bytes) -> bool:
    """True if `data` is made only of `_PLAIN_CSV_BYTES`, has a line that
    is not blank and no line longer than `csv.field_size_limit()` (so no
    cell that `csv.reader` would refuse)."""
    return (
        not data.translate(None, _PLAIN_CSV_BYTES)
        and bool(data.strip(b"\n"))
        and max(map(len, data.split(b"\n"))) <= csv.field_size_limit()
    )


def load_csv(path, has_header: bool = False) -> Dataset:
    """Read a rectangular numeric CSV ('.' decimal point, UTF-8) as an unlabelled dataset.

    A headerless file of only digits, "eE+-.", commas and newlines, with a
    line that is not blank and no line over `csv.field_size_limit()`, is
    parsed by numpy's C reader (`np.loadtxt`); every other file, and any
    such file numpy refuses or that holds a non-finite value, goes through
    `_load_csv_exact`. The values and every error are those of
    `_load_csv_exact` alone.
    """
    if not has_header:
        data = Path(path).read_bytes()
        if _is_plain_csv(data):
            try:
                x = np.loadtxt(
                    io.TextIOWrapper(io.BytesIO(data), encoding="ascii"),
                    delimiter=",",
                    dtype=np.float64,
                    ndmin=2,
                    comments=None,
                )
            except ValueError:
                pass
            else:
                if np.isfinite(x).all():
                    return Dataset(x=x)
    return _load_csv_exact(path, has_header)


def _load_csv_exact(path, has_header: bool = False) -> Dataset:
    """`load_csv` through `csv.reader` and `float()`, for any file: each
    error names the row (line) it is found in."""
    names: list[str] | None = None
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as f:
        for lineno, record in enumerate(_csv_records(f, path), start=1):
            if not record:
                continue
            if has_header and names is None and not rows:
                names = [c.strip() for c in record]
                continue
            try:
                values = [float(c) for c in record]
            except ValueError as exc:
                raise FormatError(f"{path}: non-numeric cell in row {lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in values):
                raise FormatError(f"{path}: non-finite value in row {lineno}")
            if rows and len(values) != len(rows[0]):
                raise FormatError(
                    f"{path}: row {lineno} has {len(values)} cells, expected {len(rows[0])}"
                )
            rows.append(values)
    if not rows:
        raise FormatError(f"{path}: no data rows")
    if names is not None and len(names) != len(rows[0]):
        raise FormatError(
            f"{path}: header has {len(names)} names for {len(rows[0])} columns"
        )
    return Dataset(x=np.array(rows, dtype=np.float64), feature_names=names)


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with full-precision decimal floats."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        if dataset.feature_names is not None:
            f.write(",".join(dataset.feature_names) + "\n")
        for row in dataset.x.tolist():
            f.write(",".join(map(repr, row)) + "\n")


def standardization_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population std; zero-variance columns get std 1."""
    xm = numlin.as_matrix(x, "data")
    mean = xm.mean(axis=0)
    std = xm.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return mean, std
