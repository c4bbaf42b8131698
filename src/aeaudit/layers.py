"""Network layers with hand-written forward and backward passes.

Conventions: samples are rows, dense weights have shape (fan_in, fan_out) so
a layer computes x @ W + b. Image tensors are (batch, channels, height,
width). Every layer exposes `in_shape` and `out_shape`: an int for a flat
width, a (C, H, W) tuple for an image. A forward pass does not check its
input's shape: `AutoencoderModel` checks the chain of shapes once, when it
is built. Convolutions gather patches with
im2col (a strided view of the padded input, copied once) and scatter them
back with col2im (a bincount over the same patch indices), so every
contraction is a BLAS matmul. A weight gradient is one GEMM per sample
summed over the batch, so its bits do not depend on the BLAS thread count
(one GEMM over the whole batch gave other bits with one thread than with
two). The transposed convolution is
implemented as the exact adjoint of a strided convolution, which is what
makes the finite-difference gradient checks pass to 1e-6.

Conv forward passes run the batch in sample chunks (`numlin.row_chunks`,
within its SCRATCH_ELEMENTS budget) written into one preallocated output,
so their patches and scatter index stay cache-sized whatever the batch.
numpy's stacked matmul runs one GEMM per sample and the scatter never mixes
samples, so a chunk gives the bits the whole batch gives. Dense layers stay
whole-batch: a GEMM's bits can depend on its row count.

Every layer caches its input and output. `backward(dy, cache, grads)`
returns dx; given a dict of arrays keyed and shaped like params(), it writes
the parameter gradients into them, and given None it skips them (conv2d then
skips rebuilding its input's patches too). An activation's forward may
overwrite its argument (bias and activation are applied in place on a fresh
pre-activation), and its backward needs only the output.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InputDomainError
from .numlin import as_int, row_chunks


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, so exp never overflows;
    # -|z| is taken as min(z, -z), which keeps a NaN's sign bit
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


# (forward(z), backward(dy, y)) of each activation, by name; forward may
# overwrite z, and backward needs only the output y (relu's y > 0 is z > 0)
ACTIVATION_FNS = {
    "linear": (lambda z: z, lambda dy, y: dy),
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda dy, y: dy * (y > 0.0)),
    "sigmoid": (_sigmoid, lambda dy, y: dy * y * (1.0 - y)),
}
ACTIVATIONS = tuple(ACTIVATION_FNS)


def _check_activation(tag: str) -> str:
    if tag not in ACTIVATIONS:
        raise InputDomainError(f"unknown activation {tag!r}, expected one of {ACTIVATIONS}")
    return tag


def conv_output_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    if ho < 1 or wo < 1:
        raise InputDomainError(
            f"conv reduces {h}x{w} below 1x1 (kernel {kernel}, stride {stride}, padding {padding})"
        )
    return ho, wo


def upconv_output_hw(
    h: int, w: int, kernel: int, stride: int, padding: int, output_padding: int
) -> tuple[int, int]:
    if not 0 <= output_padding < stride:
        raise InputDomainError(
            f"output_padding must be in [0, stride), got {output_padding} with stride {stride}"
        )
    ho = (h - 1) * stride - 2 * padding + kernel + output_padding
    wo = (w - 1) * stride - 2 * padding + kernel + output_padding
    if ho < 1 or wo < 1:
        raise InputDomainError("transposed conv output collapsed below 1x1")
    return ho, wo


def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Gather conv patches: (B, C, H, W) -> (B, C*k*k, Ho*Wo).

    Row c*k*k + ki*k + kj, column oh*Wo + ow holds the padded input at
    (c, ki + stride*oh, kj + stride*ow). The patches are a strided view of
    the padded input; the final reshape is the only copy.
    """
    b, c, h, w = x.shape
    ho, wo = conv_output_hw(h, w, kernel, stride, padding)
    if padding:
        xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:-padding, padding:-padding] = x
        x = xp
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, C, Ho, Wo, k, k)
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kernel * kernel, ho * wo)


@functools.lru_cache(maxsize=64)
def _patch_index(c: int, hp: int, wp: int, kernel: int, stride: int) -> np.ndarray:
    """Flat index into one padded (C, Hp, Wp) image of each im2col entry:
    where each patch entry came from. Read-only, built once per geometry."""
    flat = im2col(np.arange(c * hp * wp).reshape(1, c, hp, wp), kernel, stride, 0).ravel()
    flat.flags.writeable = False
    return flat


def col2im(
    cols: np.ndarray, out_shape: tuple[int, int, int, int], kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Scatter-add patches back: exact adjoint of im2col."""
    b, c, h, w = out_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    size = c * hp * wp
    flat = _patch_index(c, hp, wp, kernel, stride)
    idx = (np.arange(b)[:, None] * size + flat[None, :]).ravel()
    summed = np.bincount(idx, weights=cols.reshape(b, -1).ravel(), minlength=b * size)
    xp = summed.reshape(b, c, hp, wp)
    if padding:
        xp = xp[:, :, padding:-padding, padding:-padding]
    return xp


def run_layers(layers, x: np.ndarray, caches: list | None = None) -> np.ndarray:
    """Chain forward passes; when given, `caches` receives one entry per layer."""
    for layer in layers:
        x, cache = layer.forward(x)
        if caches is not None:
            caches.append(cache)
    return x


def _as_json(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    return value


class Layer:
    """The rule every layer kind follows.

    PARAMS names the layer's parameter tensors and FIELDS its constructor
    arguments in call order. A config is `kind` plus every field, with
    arrays and tuples written as lists, and builds the layer back by name.
    """

    kind: str
    PARAMS: tuple[str, ...] = ()
    FIELDS: tuple[str, ...]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAMS}

    def to_config(self) -> dict:
        return {"kind": self.kind, **{f: _as_json(getattr(self, f)) for f in self.FIELDS}}

    @classmethod
    def from_config(cls, cfg: dict):
        return cls(**{f: cfg[f] for f in cls.FIELDS})


class DenseLayer(Layer):
    kind = "dense"
    PARAMS = ("weight", "bias")
    FIELDS = ("weight", "bias", "activation")

    def __init__(self, weight: np.ndarray, bias: np.ndarray, activation: str) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise InputDomainError(
                f"dense layer expects weight (in, out) and bias (out,), got "
                f"{self.weight.shape} and {self.bias.shape}"
            )
        self.activation = _check_activation(activation)

    @property
    def in_shape(self) -> int:
        return self.weight.shape[0]

    @property
    def out_shape(self) -> int:
        return self.weight.shape[1]

    def forward(self, x: np.ndarray):
        z = x @ self.weight
        z += self.bias
        y = ACTIVATION_FNS[self.activation][0](z)
        return y, (x, y)

    def backward(self, dy: np.ndarray, cache, grads):
        x, y = cache
        dz = ACTIVATION_FNS[self.activation][1](dy, y)
        if grads is not None:
            np.matmul(x.T, dz, out=grads["weight"])
            dz.sum(axis=0, out=grads["bias"])
        return dz @ self.weight.T


def _image_shape(in_shape) -> tuple[int, int, int]:
    shape = tuple(as_int(v, "in_shape") for v in in_shape)
    if len(shape) != 3:
        raise InputDomainError(f"image in_shape must be (C, H, W), got {list(shape)}")
    return shape


class _KernelLayer(Layer):
    """Checks shared by the convolution kinds.

    The weight is (., ., k, k) in the LAYOUT its kind names, with the input
    channels on axis IN_AXIS and the output channels on the other one.
    NAME starts the kind's error messages.
    """

    PARAMS = ("weight", "bias")
    NAME: str
    LAYOUT: str
    IN_AXIS: int

    def __init__(self, weight, bias, stride, padding, activation, in_shape) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 4 or self.weight.shape[2] != self.weight.shape[3]:
            raise InputDomainError(
                f"{self.NAME} weight must be {self.LAYOUT}, got {self.weight.shape}"
            )
        if self.bias.shape != (self.weight.shape[1 - self.IN_AXIS],):
            raise InputDomainError(f"{self.NAME} bias must have one entry per output channel")
        self.stride = as_int(stride, f"{self.NAME} stride")
        self.padding = as_int(padding, f"{self.NAME} padding")
        if self.stride < 1:
            raise InputDomainError(f"{self.NAME} stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise InputDomainError(f"{self.NAME} padding must be >= 0, got {self.padding}")
        self.activation = _check_activation(activation)
        self.in_shape = _image_shape(in_shape)
        channels = self.weight.shape[self.IN_AXIS]
        if self.in_shape[0] != channels:
            raise InputDomainError(
                f"input has {self.in_shape[0]} channels, kernel expects {channels}"
            )

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]


class Conv2dLayer(_KernelLayer):
    kind = "conv2d"
    NAME, LAYOUT, IN_AXIS = "conv", "(Co, Ci, k, k)", 1
    FIELDS = ("weight", "bias", "stride", "padding", "activation", "in_shape")

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray,
        stride: int,
        padding: int,
        activation: str,
        in_shape: tuple[int, int, int],
    ) -> None:
        super().__init__(weight, bias, stride, padding, activation, in_shape)
        ho, wo = conv_output_hw(self.in_shape[1], self.in_shape[2], self.kernel, stride, padding)
        self.out_shape = (self.weight.shape[0], ho, wo)

    def forward(self, x: np.ndarray):
        b = x.shape[0]
        co, ho, wo = self.out_shape
        wmat = self.weight.reshape(co, -1)
        act = ACTIVATION_FNS[self.activation][0]
        y = np.empty((b, co, ho * wo))
        for c in row_chunks(b, wmat.shape[1] * ho * wo):
            z = np.matmul(wmat, im2col(x[c], self.kernel, self.stride, self.padding), out=y[c])
            z += self.bias[:, None]
            y[c] = act(z)
        y = y.reshape(b, co, ho, wo)
        return y, (x, y)

    def backward(self, dy: np.ndarray, cache, grads):
        x, y = cache
        b = dy.shape[0]
        co = self.out_shape[0]
        dz = ACTIVATION_FNS[self.activation][1](dy, y).reshape(b, co, -1)
        if grads is not None:
            cols = im2col(x, self.kernel, self.stride, self.padding)
            dw = grads["weight"].reshape(co, -1)
            np.matmul(dz, cols.transpose(0, 2, 1)).sum(axis=0, out=dw)
            dz.sum(axis=(0, 2), out=grads["bias"])
        dcols = self.weight.reshape(co, -1).T @ dz
        return col2im(dcols, (b, *self.in_shape), self.kernel, self.stride, self.padding)


class Upconv2dLayer(_KernelLayer):
    kind = "upconv2d"
    NAME, LAYOUT, IN_AXIS = "upconv", "(Ci, Co, k, k)", 0
    FIELDS = ("weight", "bias", "stride", "padding", "output_padding", "activation", "in_shape")

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray,
        stride: int,
        padding: int,
        output_padding: int,
        activation: str,
        in_shape: tuple[int, int, int],
    ) -> None:
        super().__init__(weight, bias, stride, padding, activation, in_shape)
        self.output_padding = as_int(output_padding, "upconv output_padding")
        ho, wo = upconv_output_hw(
            self.in_shape[1], self.in_shape[2], self.kernel, stride, padding, output_padding
        )
        self.out_shape = (self.weight.shape[1], ho, wo)
        # the adjoint relation requires conv(out) to land back on the input grid
        back = conv_output_hw(ho, wo, self.kernel, stride, padding)
        if back != (self.in_shape[1], self.in_shape[2]):
            raise InputDomainError("transposed conv geometry is not the adjoint of a conv")

    def forward(self, x: np.ndarray):
        b = x.shape[0]
        ci, h, w = self.in_shape
        wmat = self.weight.reshape(ci, -1)  # (Ci, Co*k*k)
        act = ACTIVATION_FNS[self.activation][0]
        y = np.empty((b, *self.out_shape))
        for c in row_chunks(b, wmat.shape[1] * h * w):
            cols = wmat.T @ x[c].reshape(-1, ci, h * w)
            z = col2im(cols, y[c].shape, self.kernel, self.stride, self.padding)
            z += self.bias[None, :, None, None]
            y[c] = act(z)
        return y, (x, y)

    def backward(self, dy: np.ndarray, cache, grads):
        x, y = cache
        b = dy.shape[0]
        ci = self.in_shape[0]
        dz = ACTIVATION_FNS[self.activation][1](dy, y)
        dcols = im2col(dz, self.kernel, self.stride, self.padding)  # (B, Co*k*k, H*W)
        if grads is not None:
            dw = grads["weight"].reshape(ci, -1)
            np.matmul(x.reshape(b, ci, -1), dcols.transpose(0, 2, 1)).sum(axis=0, out=dw)
            dz.sum(axis=(0, 2, 3), out=grads["bias"])
        return (self.weight.reshape(ci, -1) @ dcols).reshape(b, *self.in_shape)


class FlattenLayer(Layer):
    kind = "flatten"
    FIELDS = ("in_shape",)

    def __init__(self, in_shape: tuple[int, int, int]) -> None:
        self.in_shape = tuple(as_int(v, "flatten in_shape") for v in in_shape)
        self.out_shape = int(np.prod(self.in_shape))

    def forward(self, x: np.ndarray):
        return x.reshape(x.shape[0], -1), None

    def backward(self, dy: np.ndarray, cache, grads):
        return dy.reshape(dy.shape[0], *self.in_shape)


class ReshapeLayer(Layer):
    kind = "reshape"
    FIELDS = ("out_shape",)

    def __init__(self, out_shape: tuple[int, int, int]) -> None:
        self.out_shape = tuple(as_int(v, "reshape out_shape") for v in out_shape)
        self.in_shape = int(np.prod(self.out_shape))

    def forward(self, x: np.ndarray):
        return x.reshape(x.shape[0], *self.out_shape), None

    def backward(self, dy: np.ndarray, cache, grads):
        return dy.reshape(dy.shape[0], -1)


LAYER_KINDS = {
    "dense": DenseLayer,
    "conv2d": Conv2dLayer,
    "upconv2d": Upconv2dLayer,
    "flatten": FlattenLayer,
    "reshape": ReshapeLayer,
}


def layer_from_config(cfg: dict):
    if not isinstance(cfg, dict):
        raise TypeError(f"layer config must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind not in LAYER_KINDS:
        raise InputDomainError(f"unknown layer kind {kind!r}")
    return LAYER_KINDS[kind].from_config(cfg)
