"""Model zoo: PCA and layered autoencoders, with evaluation and persistence.

Models are treated as immutable once fitted, trained, or loaded; every
function here returns new arrays instead of mutating inputs, which makes
concurrent scoring and grid scans safe.

The model file is a single JSON document. Floats are serialized with
Python's shortest round-trip repr (up to 17 significant digits), so a
save/load cycle reproduces bit-identical forward passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import numlin
from .errors import FormatError, InputDomainError
from .layers import (
    Conv2dLayer,
    DenseLayer,
    FlattenLayer,
    ReshapeLayer,
    Upconv2dLayer,
    layer_from_config,
    run_layers,
)
from .rng import Rng

MODEL_FORMAT = "aeaudit-model"
MODEL_VERSION = 1


@dataclass
class PcaModel:
    """Mean vector plus an orthonormal basis of the top principal directions.

    Attributes:
        mean: Column means of the fitted data, length n.
        basis: (n, d) matrix whose columns are the top d right-singular
            vectors of the centered data.
        singular_values: All min(m, n) singular values of the centered data,
            descending (the tail beyond d is kept for energy accounting).
    """

    mean: np.ndarray
    basis: np.ndarray
    singular_values: np.ndarray

    def __post_init__(self) -> None:
        self.mean = numlin.as_vector(self.mean, "mean")
        self.basis = numlin.as_matrix(self.basis, "basis")
        self.singular_values = numlin.as_vector(self.singular_values, "singular_values")
        if self.basis.shape[0] != self.mean.shape[0]:
            raise InputDomainError("basis rows must match mean length")
        d = self.basis.shape[1]
        gram = self.basis.T @ self.basis
        if np.max(np.abs(gram - np.eye(d))) >= 1e-10:
            raise InputDomainError("basis columns must be orthonormal")

    @property
    def input_dim(self) -> int:
        return self.mean.shape[0]

    @property
    def input_shape(self) -> tuple[int]:
        return (self.input_dim,)

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[1]

    def encode(self, a: np.ndarray) -> np.ndarray:
        """Project rows onto the principal subspace: (x - mean) @ basis."""
        return (a - self.mean) @ self.basis

    def decode(self, y: np.ndarray) -> np.ndarray:
        """Map latent rows back: y @ basis.T + mean."""
        return y @ self.basis.T + self.mean


def pca_fit(x, d: int) -> PcaModel:
    """Fit PCA: center the data, keep the top d right-singular vectors."""
    xm = numlin.as_matrix(x, "data")
    m, n = xm.shape
    if not 1 <= d <= min(m, n):
        raise InputDomainError(f"d must be in [1, {min(m, n)}], got {d}")
    mean = xm.mean(axis=0)
    res = numlin.svd(xm - mean)
    return PcaModel(mean=mean, basis=res.v[:, :d].copy(), singular_values=res.sigma)


@dataclass
class Preprocessing:
    """Optional per-feature standardization recorded with the model."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std

    def invert(self, x: np.ndarray) -> np.ndarray:
        return x * self.std + self.mean


@dataclass
class AutoencoderModel:
    """Layered encoder/decoder with explicit parameters.

    Attributes:
        encoder: Layers mapping the (possibly standardized) input to the
            latent vector.
        decoder: Layers mapping the latent vector back to the input space.
        input_shape: (C, H, W) for image models, or (n,) for flat models.
        latent_dim: Width of the encoder output.
        preprocessing: Standardization applied before the encoder and
            inverted after the decoder, or None.
        seed: Seed used to initialize the parameters.
    """

    encoder: list
    decoder: list
    input_shape: tuple[int, ...]
    latent_dim: int
    preprocessing: Preprocessing | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.input_shape = tuple(numlin.as_int(v, "input_shape") for v in self.input_shape)
        self.latent_dim = numlin.as_int(self.latent_dim, "latent_dim")
        self.seed = numlin.as_int(self.seed, "seed")
        if len(self.input_shape) not in (1, 3):
            raise InputDomainError(f"input_shape must be (n,) or (C, H, W), not {self.input_shape}")
        shape = self.input_shape if len(self.input_shape) == 3 else self.input_shape[0]
        latent = _chain_shapes(self.encoder, shape)
        if latent != self.latent_dim:
            raise InputDomainError(
                f"encoder output {latent} does not match latent_dim {self.latent_dim}"
            )
        out = _chain_shapes(self.decoder, latent)
        if out != shape:
            raise InputDomainError(f"decoder output {out} does not reproduce input shape {shape}")
        for layer in self.layers():
            for name, p in layer.params().items():
                numlin.require_finite(p, f"{layer.kind} {name}")
        pre = self.preprocessing
        if pre is not None:
            numlin.as_vector(pre.mean, "preprocessing mean", size=self.input_dim)
            std = numlin.as_vector(pre.std, "preprocessing std", size=self.input_dim)
            if not np.all(std > 0.0):
                raise InputDomainError("preprocessing std must be > 0")

    @property
    def input_dim(self) -> int:
        return math.prod(self.input_shape)

    def layers(self):
        return [*self.encoder, *self.decoder]

    def encode(self, a: np.ndarray) -> np.ndarray:
        """Rows through the standardization (if any) and the encoder."""
        if self.preprocessing is not None:
            a = self.preprocessing.apply(a)
        return run_layers(self.encoder, a.reshape(a.shape[0], *self.input_shape))

    def decode(self, z: np.ndarray) -> np.ndarray:
        """Latent rows through the decoder, flattened, de-standardized if needed."""
        out = run_layers(self.decoder, z).reshape(z.shape[0], -1)
        if self.preprocessing is not None:
            out = self.preprocessing.invert(out)
        return out


def _chain_shapes(layers, shape):
    for layer in layers:
        if layer.in_shape != shape:
            raise InputDomainError(f"{layer.kind} expects input {layer.in_shape}, got {shape}")
        shape = layer.out_shape
    return shape


# --- evaluation: the same entry points for PCA and autoencoders -----------


def encode_batch(model, x) -> np.ndarray:
    """Latent rows of input rows; a single vector gives a single vector."""
    a, single = numlin.as_rows(x, model.input_dim, "input")
    z = model.encode(a)
    return z[0] if single else z


def decode_batch(model, z) -> np.ndarray:
    """Input-space rows of latent rows; a single vector gives a single vector."""
    a, single = numlin.as_rows(z, model.latent_dim, "latent")
    out = model.decode(a)
    return out[0] if single else out


def forward_batch(model, x) -> tuple[np.ndarray, np.ndarray]:
    """(latent, reconstruction) of input rows, or of a single vector."""
    a, single = numlin.as_rows(x, model.input_dim, "input")
    z = model.encode(a)
    out = model.decode(z)
    return (z[0], out[0]) if single else (z, out)


# --- construction -------------------------------------------------------


def _init_weight(
    rng: Rng, shape: tuple[int, ...], fan_in: int, fan_out: int, activation: str
) -> np.ndarray:
    # He-uniform for relu, Glorot-uniform otherwise
    if activation == "relu":
        limit = np.sqrt(6.0 / fan_in)
    else:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniforms(-limit, limit, shape)


def build_mlp_autoencoder(
    layer_sizes: list[int],
    activation: str = "relu",
    seed: int = 0,
    preprocessing: Preprocessing | None = None,
) -> AutoencoderModel:
    """Symmetric MLP autoencoder from a size list like [2, 5, 1, 5, 2].

    The hidden activation applies to every layer except the last, which is
    linear. The bottleneck is the smallest size (ties: first); everything up
    to it is the encoder.
    """
    if len(layer_sizes) < 3:
        raise InputDomainError("need at least [in, latent, out] sizes")
    if layer_sizes[0] != layer_sizes[-1]:
        raise InputDomainError(
            f"first and last sizes must match, got {layer_sizes[0]} and {layer_sizes[-1]}"
        )
    if any(s < 1 for s in layer_sizes):
        raise InputDomainError("layer sizes must be positive")
    latent_index = 1 + int(np.argmin(layer_sizes[1:-1]))

    rng = Rng(seed)
    layers = []
    for i in range(len(layer_sizes) - 1):
        act = activation if i < len(layer_sizes) - 2 else "linear"
        fan_in, fan_out = layer_sizes[i], layer_sizes[i + 1]
        w = _init_weight(rng, (fan_in, fan_out), fan_in, fan_out, act)
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return AutoencoderModel(
        encoder=layers[:latent_index],
        decoder=layers[latent_index:],
        input_shape=(layer_sizes[0],),
        latent_dim=layer_sizes[latent_index],
        preprocessing=preprocessing,
        seed=seed,
    )


def build_conv_autoencoder(
    image_hw: tuple[int, int] = (28, 28),
    channels: tuple[int, int] = (16, 32),
    latent_dim: int = 2,
    seed: int = 0,
) -> AutoencoderModel:
    """Two conv layers down, dense to the latent, mirrored back up.

    3x3 kernels with stride 2 and padding 1 halve each spatial dimension
    twice, and the upconvs double it back only if both halvings are exact,
    so height and width must be positive multiples of 4. The final upconv
    ends in a sigmoid to keep pixels in (0, 1); the dense links to and from
    the latent are linear.
    """
    h, w = image_hw
    if not (h > 0 and w > 0 and h % 4 == w % 4 == 0):
        raise InputDomainError(f"image sides must be positive multiples of 4, got {image_hw}")
    if latent_dim < 1:
        raise InputDomainError(f"latent_dim must be >= 1, got {latent_dim}")
    c1, c2 = channels
    rng = Rng(seed)
    k = 3

    def conv(ci, co, act, in_shape):
        weight = _init_weight(rng, (co, ci, k, k), ci * k * k, co * k * k, act)
        return Conv2dLayer(weight, np.zeros(co), 2, 1, act, in_shape)

    def upconv(ci, co, act, in_shape):
        weight = _init_weight(rng, (ci, co, k, k), ci * k * k, co * k * k, act)
        return Upconv2dLayer(weight, np.zeros(co), 2, 1, 1, act, in_shape)

    def dense(fan_in, fan_out):
        weight = _init_weight(rng, (fan_in, fan_out), fan_in, fan_out, "linear")
        return DenseLayer(weight, np.zeros(fan_out), "linear")

    h2, w2 = h // 2, w // 2
    h4, w4 = h2 // 2, w2 // 2
    flat = c2 * h4 * w4
    encoder = [
        conv(1, c1, "relu", (1, h, w)),
        conv(c1, c2, "relu", (c1, h2, w2)),
        FlattenLayer((c2, h4, w4)),
        dense(flat, latent_dim),
    ]
    decoder = [
        dense(latent_dim, flat),
        ReshapeLayer((c2, h4, w4)),
        upconv(c2, c1, "relu", (c2, h4, w4)),
        upconv(c1, 1, "sigmoid", (c1, h2, w2)),
    ]
    return AutoencoderModel(
        encoder=encoder,
        decoder=decoder,
        input_shape=(1, h, w),
        latent_dim=latent_dim,
        seed=seed,
    )


# --- persistence ---------------------------------------------------------


def save_model(model, path) -> None:
    """Write a model as a self-describing JSON document."""
    doc = {"format": MODEL_FORMAT, "version": MODEL_VERSION}
    if isinstance(model, PcaModel):
        doc |= {
            "kind": "pca",
            "mean": model.mean.tolist(),
            "basis": model.basis.tolist(),
            "singular_values": model.singular_values.tolist(),
        }
    elif isinstance(model, AutoencoderModel):
        doc |= {
            "kind": "autoencoder",
            "input_shape": list(model.input_shape),
            "latent_dim": model.latent_dim,
            "seed": model.seed,
            "preprocessing": None
            if model.preprocessing is None
            else {
                "mean": model.preprocessing.mean.tolist(),
                "std": model.preprocessing.std.tolist(),
            },
            "encoder": [layer.to_config() for layer in model.encoder],
            "decoder": [layer.to_config() for layer in model.decoder],
        }
    else:
        raise InputDomainError(f"unsupported model type {type(model)!r}")
    write_json(doc, path)


def write_json(doc: dict, path) -> None:
    """Write a JSON artifact: sorted keys, one-space indent, trailing newline.

    The bytes are those of ``json.dump(doc, f, sort_keys=True, indent=1,
    allow_nan=False)`` plus a newline. As there, NaN and Infinity are not
    JSON and raise ValueError, and other types raise TypeError. That
    encoder, once it indents, writes one token at a time in pure Python;
    this one writes each list of numbers, and each list of such lists, with
    one join and streams the rest, so memory holds the text of one such
    list at most, never the whole document.
    """
    with open(path, "w", encoding="utf-8") as f:
        _write_value(doc, 0, f.write)
        f.write("\n")


_NUMBER_TYPES = {int, float}  # exact types: bool and numpy scalars take the item path
_json_string = json.encoder.encode_basestring_ascii


def _write_value(o, level: int, write) -> None:
    text = _json_scalar(o)
    if text is not None:
        write(text)
    elif isinstance(o, dict):
        _write_dict(o, level, write)
    elif isinstance(o, (list, tuple)):
        _write_list(o, level, write)
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _json_scalar(o) -> str | None:
    """JSON text of a string, number, bool or None; None for anything else."""
    if isinstance(o, str):
        return _json_string(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    return None


def _numbers(items, sep: str) -> str | None:
    """The items' texts joined by sep when every item is an int or a float,
    else None."""
    kinds = set(map(type, items))
    if not kinds <= _NUMBER_TYPES:
        return None
    text = sep.join(map(repr, items))
    if float in kinds and "n" in text:  # "nan" and "inf" are the only such reprs
        for v in items:
            _json_scalar(v)
    return text


def _write_list(items, level: int, write) -> None:
    if not items:
        write("[]")
        return
    indent = "\n" + " " * level
    inner = indent + " "
    sep = "," + inner
    text = _numbers(items, sep)
    if text is None and set(map(type, items)) == {list} and all(items):
        rows = [_numbers(row, sep + " ") for row in items]
        if None not in rows:
            text = sep.join([f"[{inner} {row}{inner}]" for row in rows])
    if text is not None:
        write(f"[{inner}{text}{indent}]")
        return
    write("[")
    for k, v in enumerate(items):
        write(sep if k else inner)
        _write_value(v, level + 1, write)
    write(indent + "]")


def _write_dict(d: dict, level: int, write) -> None:
    if not d:
        write("{}")
        return
    indent = "\n" + " " * level
    inner = indent + " "
    write("{")
    for k, (key, v) in enumerate(sorted(d.items())):
        name = key if isinstance(key, str) else _json_scalar(key)
        if name is None:
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        write(f"{',' if k else ''}{inner}{_json_string(name)}: ")
        _write_value(v, level + 1, write)
    write(indent + "}")


def load_model(path):
    """Read a model written by save_model.

    Raises:
        FormatError: Not valid JSON, wrong format/version tag, or missing
            or mistyped fields, or a number too large for a float.
        InputDomainError: Well-typed fields that violate a model invariant.
    """
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: missing '{MODEL_FORMAT}' format tag")
    if doc.get("version") != MODEL_VERSION:
        raise FormatError(
            f"{path}: unsupported version {doc.get('version')!r}, expected {MODEL_VERSION}"
        )
    try:
        if doc["kind"] == "pca":
            return PcaModel(
                mean=np.array(doc["mean"], dtype=np.float64),
                basis=np.array(doc["basis"], dtype=np.float64),
                singular_values=np.array(doc["singular_values"], dtype=np.float64),
            )
        if doc["kind"] == "autoencoder":
            pre = doc.get("preprocessing")
            preprocessing = None
            if pre is not None:
                preprocessing = Preprocessing(
                    mean=np.array(pre["mean"], dtype=np.float64),
                    std=np.array(pre["std"], dtype=np.float64),
                )
            return AutoencoderModel(
                encoder=[layer_from_config(c) for c in doc["encoder"]],
                decoder=[layer_from_config(c) for c in doc["decoder"]],
                input_shape=tuple(doc["input_shape"]),
                latent_dim=doc["latent_dim"],
                preprocessing=preprocessing,
                seed=doc.get("seed", 0),
            )
    except InputDomainError:
        raise
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed model document ({exc})") from None
    raise FormatError(f"{path}: unknown model kind {doc.get('kind')!r}")
