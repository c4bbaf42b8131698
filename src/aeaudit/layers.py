"""Network layers with hand-written forward and backward passes.

Conventions: samples are rows, dense weights have shape (fan_in, fan_out) so
a layer computes x @ W + b. Image tensors are (batch, channels, height,
width). Every layer exposes `in_shape` and `out_shape`: an int for a flat
width, a (C, H, W) tuple for an image. Convolutions gather patches with
im2col (a strided view of the padded input, copied once) and scatter them
back with col2im (a bincount over the same patch indices), so every
contraction is a BLAS matmul or tensordot. The transposed convolution is
implemented as the exact adjoint of a strided convolution, which is what
makes the finite-difference gradient checks pass to 1e-6.
"""

from __future__ import annotations

import numpy as np

from .errors import InputDomainError

ACTIVATIONS = ("linear", "relu", "sigmoid")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def act_forward(tag: str, z: np.ndarray) -> np.ndarray:
    if tag == "linear":
        return z
    if tag == "relu":
        return np.maximum(z, 0.0)
    if tag == "sigmoid":
        return _sigmoid(z)
    raise InputDomainError(f"unknown activation {tag!r}")


def act_backward(tag: str, dy: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if tag == "linear":
        return dy
    if tag == "relu":
        return dy * (z > 0.0)
    if tag == "sigmoid":
        return dy * y * (1.0 - y)
    raise InputDomainError(f"unknown activation {tag!r}")


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
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (B, C, Ho, Wo, k, k)
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kernel * kernel, ho * wo)


def col2im(
    cols: np.ndarray, out_shape: tuple[int, int, int, int], kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Scatter-add patches back: exact adjoint of im2col."""
    b, c, h, w = out_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    size = c * hp * wp
    # im2col of the padded image's flat indices: where each patch entry came from
    flat = im2col(np.arange(size).reshape(1, c, hp, wp), kernel, stride, 0).ravel()
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


class DenseLayer:
    kind = "dense"

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
        z = x @ self.weight + self.bias
        y = act_forward(self.activation, z)
        return y, (x, z, y)

    def backward(self, dy: np.ndarray, cache):
        x, z, y = cache
        dz = act_backward(self.activation, dy, z, y)
        dx = dz @ self.weight.T
        grads = {"weight": x.T @ dz, "bias": dz.sum(axis=0)}
        return dx, grads

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "activation": self.activation,
            "weight": self.weight.tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "DenseLayer":
        return cls(np.array(cfg["weight"]), np.array(cfg["bias"]), cfg["activation"])


def _image_shape(in_shape) -> tuple[int, int, int]:
    shape = tuple(int(v) for v in in_shape)
    if len(shape) != 3:
        raise InputDomainError(f"image in_shape must be (C, H, W), got {list(shape)}")
    return shape


class Conv2dLayer:
    kind = "conv2d"

    def __init__(
        self,
        weight: np.ndarray,
        bias: np.ndarray,
        stride: int,
        padding: int,
        activation: str,
        in_shape: tuple[int, int, int],
    ) -> None:
        self.weight = np.asarray(weight, dtype=np.float64)  # (Co, Ci, k, k)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 4 or self.weight.shape[2] != self.weight.shape[3]:
            raise InputDomainError(f"conv weight must be (Co, Ci, k, k), got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise InputDomainError("conv bias must have one entry per output channel")
        self.stride = int(stride)
        self.padding = int(padding)
        self.activation = _check_activation(activation)
        self.in_shape = _image_shape(in_shape)
        if self.in_shape[0] != self.weight.shape[1]:
            raise InputDomainError(
                f"input has {self.in_shape[0]} channels, kernel expects {self.weight.shape[1]}"
            )
        kernel = self.weight.shape[2]
        ho, wo = conv_output_hw(self.in_shape[1], self.in_shape[2], kernel, stride, padding)
        self.out_shape = (self.weight.shape[0], ho, wo)

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]

    def forward(self, x: np.ndarray):
        b = x.shape[0]
        if x.shape[1:] != self.in_shape:
            raise InputDomainError(f"conv input shape {x.shape[1:]} != {self.in_shape}")
        co, ho, wo = self.out_shape
        cols = im2col(x, self.kernel, self.stride, self.padding)
        wmat = self.weight.reshape(co, -1)
        z = (wmat @ cols) + self.bias[:, None]
        z = z.reshape(b, co, ho, wo)
        y = act_forward(self.activation, z)
        return y, (cols, z, y)

    def backward(self, dy: np.ndarray, cache):
        cols, z, y = cache
        b = dy.shape[0]
        co = self.out_shape[0]
        dz = act_backward(self.activation, dy, z, y).reshape(b, co, -1)
        wmat = self.weight.reshape(co, -1)
        dwmat = np.tensordot(dz, cols, axes=([0, 2], [0, 2]))
        db = dz.sum(axis=(0, 2))
        dcols = wmat.T @ dz
        dx = col2im(dcols, (b, *self.in_shape), self.kernel, self.stride, self.padding)
        return dx, {"weight": dwmat.reshape(self.weight.shape), "bias": db}

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "activation": self.activation,
            "stride": self.stride,
            "padding": self.padding,
            "in_shape": list(self.in_shape),
            "weight": self.weight.tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "Conv2dLayer":
        return cls(
            np.array(cfg["weight"]),
            np.array(cfg["bias"]),
            cfg["stride"],
            cfg["padding"],
            cfg["activation"],
            tuple(cfg["in_shape"]),
        )


class Upconv2dLayer:
    kind = "upconv2d"

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
        self.weight = np.asarray(weight, dtype=np.float64)  # (Ci, Co, k, k)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.weight.ndim != 4 or self.weight.shape[2] != self.weight.shape[3]:
            raise InputDomainError(
                f"upconv weight must be (Ci, Co, k, k), got {self.weight.shape}"
            )
        if self.bias.shape != (self.weight.shape[1],):
            raise InputDomainError("upconv bias must have one entry per output channel")
        self.stride = int(stride)
        self.padding = int(padding)
        self.output_padding = int(output_padding)
        self.activation = _check_activation(activation)
        self.in_shape = _image_shape(in_shape)
        if self.in_shape[0] != self.weight.shape[0]:
            raise InputDomainError(
                f"input has {self.in_shape[0]} channels, kernel expects {self.weight.shape[0]}"
            )
        kernel = self.weight.shape[2]
        ho, wo = upconv_output_hw(
            self.in_shape[1], self.in_shape[2], kernel, stride, padding, output_padding
        )
        self.out_shape = (self.weight.shape[1], ho, wo)
        # the adjoint relation requires conv(out) to land back on the input grid
        back = conv_output_hw(ho, wo, kernel, stride, padding)
        if back != (self.in_shape[1], self.in_shape[2]):
            raise InputDomainError("transposed conv geometry is not the adjoint of a conv")

    @property
    def kernel(self) -> int:
        return self.weight.shape[2]

    def forward(self, x: np.ndarray):
        b = x.shape[0]
        if x.shape[1:] != self.in_shape:
            raise InputDomainError(f"upconv input shape {x.shape[1:]} != {self.in_shape}")
        ci = self.in_shape[0]
        x_mat = x.reshape(b, ci, -1)
        wmat = self.weight.reshape(ci, -1)  # (Ci, Co*k*k)
        cols = wmat.T @ x_mat
        z = col2im(cols, (b, *self.out_shape), self.kernel, self.stride, self.padding)
        z = z + self.bias[None, :, None, None]
        y = act_forward(self.activation, z)
        return y, (x_mat, z, y)

    def backward(self, dy: np.ndarray, cache):
        x_mat, z, y = cache
        b = dy.shape[0]
        ci = self.in_shape[0]
        dz = act_backward(self.activation, dy, z, y)
        db = dz.sum(axis=(0, 2, 3))
        dcols = im2col(dz, self.kernel, self.stride, self.padding)  # (B, Co*k*k, H*W)
        wmat = self.weight.reshape(ci, -1)
        dwmat = np.tensordot(x_mat, dcols, axes=([0, 2], [0, 2]))
        dx = (wmat @ dcols).reshape(b, *self.in_shape)
        return dx, {"weight": dwmat.reshape(self.weight.shape), "bias": db}

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def to_config(self) -> dict:
        return {
            "kind": self.kind,
            "activation": self.activation,
            "stride": self.stride,
            "padding": self.padding,
            "output_padding": self.output_padding,
            "in_shape": list(self.in_shape),
            "weight": self.weight.tolist(),
            "bias": self.bias.tolist(),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "Upconv2dLayer":
        return cls(
            np.array(cfg["weight"]),
            np.array(cfg["bias"]),
            cfg["stride"],
            cfg["padding"],
            cfg["output_padding"],
            cfg["activation"],
            tuple(cfg["in_shape"]),
        )


class FlattenLayer:
    kind = "flatten"
    activation = "linear"

    def __init__(self, in_shape: tuple[int, int, int]) -> None:
        self.in_shape = tuple(int(v) for v in in_shape)
        self.out_shape = int(np.prod(self.in_shape))

    def forward(self, x: np.ndarray):
        if x.shape[1:] != self.in_shape:
            raise InputDomainError(f"flatten input shape {x.shape[1:]} != {self.in_shape}")
        return x.reshape(x.shape[0], -1), None

    def backward(self, dy: np.ndarray, cache):
        return dy.reshape(dy.shape[0], *self.in_shape), {}

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def to_config(self) -> dict:
        return {"kind": self.kind, "in_shape": list(self.in_shape)}

    @classmethod
    def from_config(cls, cfg: dict) -> "FlattenLayer":
        return cls(tuple(cfg["in_shape"]))


class ReshapeLayer:
    kind = "reshape"
    activation = "linear"

    def __init__(self, out_shape: tuple[int, int, int]) -> None:
        self.out_shape = tuple(int(v) for v in out_shape)
        self.in_shape = int(np.prod(self.out_shape))

    def forward(self, x: np.ndarray):
        if x.shape[1] != self.in_shape:
            raise InputDomainError(f"reshape input width {x.shape[1]} != {self.in_shape}")
        return x.reshape(x.shape[0], *self.out_shape), None

    def backward(self, dy: np.ndarray, cache):
        return dy.reshape(dy.shape[0], -1), {}

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def to_config(self) -> dict:
        return {"kind": self.kind, "out_shape": list(self.out_shape)}

    @classmethod
    def from_config(cls, cfg: dict) -> "ReshapeLayer":
        return cls(tuple(cfg["out_shape"]))


LAYER_KINDS = {
    "dense": DenseLayer,
    "conv2d": Conv2dLayer,
    "upconv2d": Upconv2dLayer,
    "flatten": FlattenLayer,
    "reshape": ReshapeLayer,
}


def layer_from_config(cfg: dict):
    kind = cfg.get("kind")
    if kind not in LAYER_KINDS:
        raise InputDomainError(f"unknown layer kind {kind!r}")
    return LAYER_KINDS[kind].from_config(cfg)
