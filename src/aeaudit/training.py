"""Backpropagation, optimizers, and the deterministic training loop.

Training works in the network's own space: when a model carries
standardization, each batch is standardized on its way into the network and
the reported losses are in that space. Scoring (anomaly module) always
reports losses in the raw input space.
"""

from __future__ import annotations

import copy
import math
import numbers
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import numlin
from .datagen import Dataset
from .errors import InputDomainError, TrainingDivergedError
from .layers import run_layers
from .models import AutoencoderModel, save_model
from .rng import Rng, derive_seed, permutations

OPTIMIZERS = ("sgd", "adam")

# shuffle orders are drawn for a block of epochs at once. A Fisher-Yates
# step costs about the same for one stream as for a dozen, so a block holds at
# least SHUFFLE_BLOCK_EPOCHS epochs (one stream each), and more while it stays
# under SHUFFLE_BLOCK_INDICES indices; the orders take 8 bytes an index, so
# memory does not grow with the epoch count and a run that diverges early
# draws at most one block in vain
SHUFFLE_BLOCK_EPOCHS = 16
SHUFFLE_BLOCK_INDICES = 2**15

# TrainConfig field annotation -> accepted runtime types
_FIELD_TYPES = {
    "int": numbers.Integral,
    "float": numbers.Real,
    "str": str,
    "bool": bool,
    "str | None": (str, type(None)),
}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run."""

    epochs: int = 2000
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    shuffle: bool = True
    checkpoint_interval: int = 0
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is an int subclass: accept it for bool fields only
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise InputDomainError(f"{f.name} must be {f.type}, got {value!r}")
            # compared exactly: a huge int would overflow float() later
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise InputDomainError(f"{f.name} must be finite, got {value!r}")
        if not self.learning_rate > 0:
            raise InputDomainError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise InputDomainError("batch_size must be >= 1")
        if self.epochs < 0:
            raise InputDomainError("epochs must be >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise InputDomainError(f"optimizer must be one of {OPTIMIZERS}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise InputDomainError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not self.eps > 0:
            raise InputDomainError(f"eps must be > 0, got {self.eps!r}")
        if self.checkpoint_interval < 0:
            raise InputDomainError("checkpoint_interval must be >= 0")
        if self.checkpoint_interval and not self.checkpoint_dir:
            raise InputDomainError("checkpoint_interval needs a checkpoint_dir")

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainConfig":
        allowed = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - allowed
        if unknown:
            raise InputDomainError(f"unknown TrainConfig fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class TrainReport:
    """Per-epoch mean losses plus run metadata."""

    epoch_losses: list[float]
    final_loss: float
    wall_time_s: float
    seed: int

    def to_json_dict(self) -> dict:
        # wall time is left out so identical runs produce identical bytes;
        # with no epochs there is no final loss (NaN), written as null
        return {
            "epoch_losses": self.epoch_losses,
            "final_loss": numlin.finite_or_none(self.final_loss),
            "seed": self.seed,
        }


def backward(model: AutoencoderModel, batch, grads: list | None = None) -> tuple[float, list]:
    """Loss and gradients of the mean batch loss for every parameter.

    The loss is the squared residual averaged over every entry of the
    batch: the mean over its rows of each row's mean squared error.
    Gradients are one dict per layer (encoder then decoder) keyed and shaped
    like layer.params(): `grads` as `_bind` lays it out, else fresh arrays.
    Standardization, when present, is applied to the batch before the
    network, so gradients are of the network-space loss.
    """
    if grads is None:
        grads = [{k: np.empty_like(v) for k, v in layer.params().items()}
                 for layer in model.layers()]
    caches: list = []
    a, out = _network_forward(model, batch, caches)
    r = out - a
    _backprop(model, (2.0 / r.size) * r, caches, grads)
    return float(np.sum(r * r)) / r.size, grads


def _network_forward(model: AutoencoderModel, batch, caches: list | None = None):
    """Forward in network space: (standardized rows, flat network output)."""
    a, _ = numlin.as_rows(batch, model.input_dim, "batch")
    if model.preprocessing is not None:
        a = model.preprocessing.apply(a)
    out = run_layers(model.layers(), a.reshape(a.shape[0], *model.input_shape), caches)
    return a, out.reshape(a.shape[0], -1)


def _backprop(model: AutoencoderModel, dy: np.ndarray, caches: list, grads: list[dict] | None):
    """Flat output gradient -> flat input gradient; each layer writes its
    parameter gradients into its dict of `grads`, or skips them when None."""
    layers = model.layers()
    # the network output was flattened for the loss; undo that first
    dx = dy.reshape(dy.shape[0], *model.input_shape)
    for i in range(len(layers) - 1, -1, -1):
        dx = layers[i].backward(dx, caches[i], None if grads is None else grads[i])
    return dx.reshape(dy.shape[0], -1)


def input_gradient(model: AutoencoderModel, a) -> tuple[float | np.ndarray, np.ndarray]:
    """Loss L(a) = mse(a, model(a)) and its gradient with respect to a.

    Takes rows like every other entry point (see `numlin.as_rows`): an
    (R, n) array gives R losses and an (R, n) gradient, a single vector a
    float and a vector. Works in raw input space: the chain rule runs
    through the standardization maps when the model has them.
    """
    v, single = numlin.as_rows(a, model.input_dim, "input")
    caches: list = []
    std = model.preprocessing
    _, net_out = _network_forward(model, v, caches)
    out = std.invert(net_out) if std is not None else net_out

    n = v.shape[1]
    r = v - out
    loss = np.sum(r * r, axis=1) / n
    # dL/da = (2/n) (r - J^T r); J^T r via one backward pass
    upstream = (2.0 / n) * r
    if std is not None:
        upstream = upstream * std.std  # through the de-standardization
    dx = _backprop(model, upstream, caches, None)
    if std is not None:
        dx = dx / std.std  # through the standardization
    grad = (2.0 / n) * r - dx
    return (float(loss[0]), grad[0]) if single else (loss, grad)


def _bind(layers) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """(params, grad, grads): one flat parameter buffer and one flat gradient
    buffer laid out alike. Every parameter is copied into `params` and its
    layer attribute rebound to its view, so stepping the buffer in place
    updates the layers; grads[i] maps layer i's parameter names to their
    views of `grad`.
    """
    size = sum(p.size for layer in layers for p in layer.params().values())
    params, grad = np.empty(size), np.empty(size)
    grads, offset = [], 0
    for layer in layers:
        grads.append({})
        for name, p in layer.params().items():
            end = offset + p.size
            params[offset:end] = p.ravel()
            setattr(layer, name, params[offset:end].reshape(p.shape))
            grads[-1][name] = grad[offset:end].reshape(p.shape)
            offset = end
    return params, grad, grads


class Sgd:
    """Plain gradient descent on a flat parameter vector, in place."""

    def __init__(self, flat: np.ndarray, learning_rate: float) -> None:
        self.flat = flat
        self.lr = learning_rate

    def step(self, grad: np.ndarray) -> None:
        self.flat -= self.lr * grad


class Adam:
    """Adam with bias correction; a zero gradient on fresh state is a no-op.

    Steps a flat parameter vector in place; the moments are flat vectors of
    the same length, so a step is a few whole-vector operations with the
    textbook per-element formulas.
    """

    def __init__(
        self, flat: np.ndarray, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8
    ) -> None:
        self.flat = flat
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, g: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        self.m = b1 * self.m + (1.0 - b1) * g
        self.v = b2 * self.v + (1.0 - b2) * g**2
        mhat = self.m / (1.0 - b1**self.t)
        vhat = self.v / (1.0 - b2**self.t)
        self.flat -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _first_non_finite(model: AutoencoderModel) -> str:
    """`kind.param` of the first parameter tensor holding a non-finite value."""
    return next(
        f"{layer.kind}.{name}"
        for layer in model.layers()
        for name, p in layer.params().items()
        if not np.all(np.isfinite(p))
    )


def train(
    model: AutoencoderModel, dataset: Dataset, config: TrainConfig
) -> tuple[AutoencoderModel, TrainReport]:
    """Train a copy of the model; the input model is left untouched.

    Batches are consecutive slices of a per-epoch Fisher-Yates shuffle
    seeded from derive_seed(config.seed, epoch), so runs are
    bit-reproducible. The shuffles of a block of epochs are drawn together
    by `rng.permutations`, which gives each epoch the same order as
    `Rng(derive_seed(config.seed, epoch)).permutation`.

    Raises:
        TrainingDivergedError: Loss or parameters became non-finite.
    """
    model = copy.deepcopy(model)
    x, _ = numlin.as_rows(dataset.x, model.input_dim, "dataset")
    m = x.shape[0]
    params, grad, grads = _bind(model.layers())
    opt = (Sgd(params, config.learning_rate) if config.optimizer == "sgd"
           else Adam(params, config.learning_rate, config.beta1, config.beta2, config.eps))
    block = max(SHUFFLE_BLOCK_EPOCHS, SHUFFLE_BLOCK_INDICES // max(m, 1))
    # blocks of equal size, so the last one is not left with a few streams
    block = math.ceil(config.epochs / max(1, math.ceil(config.epochs / block)))
    started = time.perf_counter()
    epoch_losses: list[float] = []
    # overflow just means divergence, caught by the loss check after each
    # batch or by the parameter check at the end of each epoch
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            if config.shuffle:
                if epoch % block == 0:
                    epochs = range(epoch, min(epoch + block, config.epochs))
                    orders = permutations([derive_seed(config.seed, e) for e in epochs], m)
                xe = x[orders[epoch % block]]
            else:
                xe = x
            total = 0.0
            for lo in range(0, m, config.batch_size):
                batch = xe[lo : lo + config.batch_size]
                loss, _ = backward(model, batch, grads)
                opt.step(grad)
                if not np.isfinite(loss):
                    raise TrainingDivergedError(
                        f"non-finite loss in epoch {epoch}; last good epoch "
                        f"{epoch - 1}",
                        last_good_epoch=epoch - 1,
                    )
                total += loss * batch.shape[0]
            if not np.all(np.isfinite(params)):
                raise TrainingDivergedError(
                    f"non-finite parameter {_first_non_finite(model)} in epoch {epoch}; "
                    f"last good epoch {epoch - 1}",
                    last_good_epoch=epoch - 1,
                )
            epoch_losses.append(total / m)
            if config.checkpoint_interval and (epoch + 1) % config.checkpoint_interval == 0:
                save_model(model, f"{config.checkpoint_dir}/epoch_{epoch + 1:06d}.json")
    wall = time.perf_counter() - started
    final = epoch_losses[-1] if epoch_losses else float("nan")
    report = TrainReport(
        epoch_losses=epoch_losses, final_loss=final, wall_time_s=wall, seed=config.seed
    )
    return model, report


def check_gradients(
    model: AutoencoderModel,
    batch: np.ndarray,
    step: float = 1e-5,
    samples_per_tensor: int = 12,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Samples coordinates from every parameter tensor; the finite-difference
    loss is the one `backward` returns with the analytic gradients.
    """
    _, grads = backward(model, batch)
    rng = Rng(seed)
    worst = 0.0
    layers = model.layers()
    for layer, g in zip(layers, grads):
        for name, p in layer.params().items():
            flat = p.reshape(-1)
            gflat = g[name].reshape(-1)
            count = min(samples_per_tensor, flat.shape[0])
            picked = {rng.randbelow(flat.shape[0]) for _ in range(count)}
            for idx in picked:
                orig = flat[idx]
                flat[idx] = orig + step
                up = backward(model, batch)[0]
                flat[idx] = orig - step
                down = backward(model, batch)[0]
                flat[idx] = orig
                fd = (up - down) / (2.0 * step)
                denom = max(abs(fd), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(fd - gflat[idx]) / denom)
    return worst
