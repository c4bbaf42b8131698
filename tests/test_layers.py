"""Conv kernels: the strided-view im2col, the bincount col2im and the BLAS
contractions, checked against the fancy-index gather and the einsum
formulations they replaced (kept here as references)."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from aeaudit.errors import InputDomainError
from aeaudit.layers import (
    Conv2dLayer,
    Upconv2dLayer,
    col2im,
    conv_output_hw,
    im2col,
)

RTOL = 1e-12
ATOL = 1e-14


def _reference_indices(c, h, w, kernel, stride, padding):
    ho, wo = conv_output_hw(h, w, kernel, stride, padding)
    i0 = np.tile(np.repeat(np.arange(kernel), kernel), c)
    j0 = np.tile(np.arange(kernel), kernel * c)
    i1 = stride * np.repeat(np.arange(ho), wo)
    j1 = stride * np.tile(np.arange(wo), ho)
    i = i0[:, None] + i1[None, :]
    j = j0[:, None] + j1[None, :]
    k = np.repeat(np.arange(c), kernel * kernel)[:, None]
    return k, i, j


def reference_im2col(x, kernel, stride, padding):
    """Fancy-index gather: (B, C, H, W) -> (B, C*k*k, Ho*Wo)."""
    _, c, h, w = x.shape
    k, i, j = _reference_indices(c, h, w, kernel, stride, padding)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return x[:, k, i, j]


def reference_col2im(cols, out_shape, kernel, stride, padding):
    """bincount scatter over the fancy-index gather's flat indices."""
    b, c, h, w = out_shape
    k, i, j = _reference_indices(c, h, w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    size = c * hp * wp
    flat = ((k * hp + i) * wp + j).ravel()
    idx = (np.arange(b)[:, None] * size + flat[None, :]).ravel()
    summed = np.bincount(idx, weights=cols.reshape(b, -1).ravel(), minlength=b * size)
    xp = summed.reshape(b, c, hp, wp)
    if padding:
        xp = xp[:, :, padding:-padding, padding:-padding]
    return xp


def reference_conv2d(layer, x, dy):
    """Conv2d forward pre-activation and backward (dx, dW, db), einsum for dW."""
    b = x.shape[0]
    co, ho, wo = layer.out_shape
    cols = reference_im2col(x, layer.kernel, layer.stride, layer.padding)
    wmat = layer.weight.reshape(co, -1)
    z = ((wmat @ cols) + layer.bias[:, None]).reshape(b, co, ho, wo)
    dz = dy.reshape(b, co, -1)  # linear activation
    dw = np.einsum("bol,bkl->ok", dz, cols).reshape(layer.weight.shape)
    dcols = wmat.T @ dz
    dx = reference_col2im(dcols, (b, *layer.in_shape), layer.kernel, layer.stride, layer.padding)
    return z, dx, dw, dz.sum(axis=(0, 2))


def reference_upconv2d(layer, x, dy):
    """Upconv2d forward pre-activation and backward (dx, dW, db) via einsum."""
    # linear activation: dz is dy
    b = x.shape[0]
    ci = layer.in_shape[0]
    x_mat = x.reshape(b, ci, -1)
    wmat = layer.weight.reshape(ci, -1)
    cols = np.einsum("ik,bil->bkl", wmat, x_mat)
    z = reference_col2im(cols, (b, *layer.out_shape), layer.kernel, layer.stride, layer.padding)
    z = z + layer.bias[None, :, None, None]
    dcols = reference_im2col(dy, layer.kernel, layer.stride, layer.padding)
    dw = np.einsum("bil,bkl->ik", x_mat, dcols).reshape(layer.weight.shape)
    dx = np.einsum("ik,bkl->bil", wmat, dcols).reshape(b, *layer.in_shape)
    return z, dx, dw, dy.sum(axis=(0, 2, 3))


@st.composite
def conv_geometry(draw):
    c = draw(st.integers(1, 4))
    h = draw(st.integers(2, 10))
    w = draw(st.integers(2, 10))
    kernel = draw(st.integers(1, 3))
    stride = draw(st.integers(1, 2))
    padding = draw(st.integers(0, 1))
    assume(h + 2 * padding >= kernel and w + 2 * padding >= kernel)
    return c, h, w, kernel, stride, padding


@given(conv_geometry(), st.integers(0, 2**32 - 1))
def test_col2im_is_the_adjoint_of_im2col(geom, seed):
    c, h, w, kernel, stride, padding = geom
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, c, h, w))
    cols = im2col(x, kernel, stride, padding)
    y = rng.standard_normal(cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, kernel, stride, padding)))
    scale = float(np.sum(np.abs(cols * y)))
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)


@given(conv_geometry(), st.integers(0, 2**32 - 1))
def test_im2col_bytes_equal_fancy_index_gather(geom, seed):
    c, h, w, kernel, stride, padding = geom
    x = np.random.default_rng(seed).standard_normal((3, c, h, w))
    new = im2col(x, kernel, stride, padding)
    old = reference_im2col(x, kernel, stride, padding)
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@given(conv_geometry(), st.integers(0, 2**32 - 1))
def test_col2im_bytes_equal_reference_scatter(geom, seed):
    c, h, w, kernel, stride, padding = geom
    shape = (3, c, h, w)
    ho, wo = conv_output_hw(h, w, kernel, stride, padding)
    cols = np.random.default_rng(seed).standard_normal((3, c * kernel * kernel, ho * wo))
    new = col2im(cols, shape, kernel, stride, padding)
    old = reference_col2im(cols, shape, kernel, stride, padding)
    assert new.shape == old.shape == shape
    assert new.tobytes() == old.tobytes()


def test_im2col_rejects_geometry_below_one_pixel():
    with pytest.raises(InputDomainError):
        im2col(np.zeros((1, 1, 2, 2)), 3, 1, 0)


# (in_shape, Co, kernel, stride, padding): the conv autoencoder's two
# encoder layers at 28x28, its first at 8x8, and an odd, unpadded geometry
CONV_CASES = [
    ((1, 28, 28), 16, 3, 2, 1),
    ((16, 14, 14), 32, 3, 2, 1),
    ((1, 8, 8), 16, 3, 2, 1),
    ((3, 7, 5), 2, 2, 1, 0),
]


@pytest.mark.parametrize("in_shape,co,kernel,stride,padding", CONV_CASES)
def test_conv2d_matches_einsum_reference(in_shape, co, kernel, stride, padding):
    rng = np.random.default_rng(5)
    weight = rng.standard_normal((co, in_shape[0], kernel, kernel))
    layer = Conv2dLayer(weight, rng.standard_normal(co), stride, padding, "linear", in_shape)
    x = rng.standard_normal((4, *in_shape))
    dy = rng.standard_normal((4, *layer.out_shape))
    z, cache = layer.forward(x)
    dx, grads = layer.backward(dy, cache)
    ref_z, ref_dx, ref_dw, ref_db = reference_conv2d(layer, x, dy)
    np.testing.assert_allclose(z, ref_z, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(dx, ref_dx, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(grads["weight"], ref_dw, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(grads["bias"], ref_db, rtol=RTOL, atol=ATOL)


# (in_shape, Co, kernel, stride, padding, output_padding): the conv
# autoencoder's two decoder layers at 28x28, and an unpadded stride-1 geometry
UPCONV_CASES = [
    ((32, 7, 7), 16, 3, 2, 1, 1),
    ((16, 14, 14), 1, 3, 2, 1, 1),
    ((2, 4, 3), 3, 2, 1, 0, 0),
]


@pytest.mark.parametrize("in_shape,co,kernel,stride,padding,output_padding", UPCONV_CASES)
def test_upconv2d_matches_einsum_reference(
    in_shape, co, kernel, stride, padding, output_padding
):
    rng = np.random.default_rng(6)
    weight = rng.standard_normal((in_shape[0], co, kernel, kernel))
    layer = Upconv2dLayer(
        weight, rng.standard_normal(co), stride, padding, output_padding, "linear", in_shape
    )
    x = rng.standard_normal((4, *in_shape))
    dy = rng.standard_normal((4, *layer.out_shape))
    z, cache = layer.forward(x)
    dx, grads = layer.backward(dy, cache)
    ref_z, ref_dx, ref_dw, ref_db = reference_upconv2d(layer, x, dy)
    np.testing.assert_allclose(z, ref_z, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(dx, ref_dx, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(grads["weight"], ref_dw, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(grads["bias"], ref_db, rtol=RTOL, atol=ATOL)

