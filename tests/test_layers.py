"""Conv kernels: the strided-view im2col, the bincount col2im and the BLAS
contractions, checked against the fancy-index gather and the einsum
formulations they replaced, and the sample-chunked forward passes checked
byte for byte against the whole-batch layers they replaced (all kept here
as references)."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from aeaudit import numlin
from aeaudit.errors import InputDomainError
from aeaudit.layers import (
    ACTIVATION_FNS,
    ACTIVATIONS,
    LAYER_KINDS,
    Conv2dLayer,
    DenseLayer,
    FlattenLayer,
    ReshapeLayer,
    Upconv2dLayer,
    col2im,
    conv_output_hw,
    im2col,
)

RTOL = 1e-12
ATOL = 1e-14


def backward_with_grads(layer, dy, cache):
    """(dx, parameter gradients) of one backward pass, into fresh arrays."""
    grads = {k: np.empty_like(v) for k, v in layer.params().items()}
    return layer.backward(dy, cache, grads), grads


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
    dx, grads = backward_with_grads(layer, dy, cache)
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
    dx, grads = backward_with_grads(layer, dy, cache)
    ref_z, ref_dx, ref_dw, ref_db = reference_upconv2d(layer, x, dy)
    np.testing.assert_allclose(z, ref_z, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(dx, ref_dx, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(grads["weight"], ref_dw, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(grads["bias"], ref_db, rtol=RTOL, atol=ATOL)


# --- the whole-batch layers that the chunked forward passes replaced ---------


def whole_batch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# (forward(z), backward(dy, z, y)): backward read the pre-activation z
WHOLE_BATCH_ACTIVATIONS = {
    "linear": (lambda z: z, lambda dy, z, y: dy),
    "relu": (lambda z: np.maximum(z, 0.0), lambda dy, z, y: dy * (z > 0.0)),
    "sigmoid": (whole_batch_sigmoid, lambda dy, z, y: dy * y * (1.0 - y)),
}


def whole_batch_dense(layer, x, dy):
    """(y, dx, dW, db) of a dense layer with z = x @ W + b kept for backward."""
    forward, backward = WHOLE_BATCH_ACTIVATIONS[layer.activation]
    z = x @ layer.weight + layer.bias
    y = forward(z)
    dz = backward(dy, z, y)
    return y, dz @ layer.weight.T, x.T @ dz, dz.sum(axis=0)


# The whole-batch conv layers gathered patches with `im2col` (unchanged) and
# scattered them with a col2im that `reference_col2im` equals byte for byte.
# Their weight gradients are written in the layers' per-sample GEMM form;
# `test_weight_gradient_matches_tensordot` ties that form to the batch-wide
# tensordot it replaced.


def whole_batch_conv2d(layer, x, dy):
    """(y, dx, dW, db) of a conv2d layer run on the whole batch at once."""
    forward, backward = WHOLE_BATCH_ACTIVATIONS[layer.activation]
    b = x.shape[0]
    co, ho, wo = layer.out_shape
    cols = im2col(x, layer.kernel, layer.stride, layer.padding)
    wmat = layer.weight.reshape(co, -1)
    z = ((wmat @ cols) + layer.bias[:, None]).reshape(b, co, ho, wo)
    y = forward(z)
    dz = backward(dy, z, y).reshape(b, co, -1)
    dw = np.matmul(dz, cols.transpose(0, 2, 1)).sum(axis=0).reshape(layer.weight.shape)
    dcols = wmat.T @ dz
    dx = reference_col2im(dcols, (b, *layer.in_shape), layer.kernel, layer.stride, layer.padding)
    return y, dx, dw, dz.sum(axis=(0, 2))


def whole_batch_upconv2d(layer, x, dy):
    """(y, dx, dW, db) of an upconv2d layer run on the whole batch at once."""
    forward, backward = WHOLE_BATCH_ACTIVATIONS[layer.activation]
    b = x.shape[0]
    ci = layer.in_shape[0]
    x_mat = x.reshape(b, ci, -1)
    wmat = layer.weight.reshape(ci, -1)
    cols = wmat.T @ x_mat
    z = reference_col2im(cols, (b, *layer.out_shape), layer.kernel, layer.stride, layer.padding)
    z = z + layer.bias[None, :, None, None]
    y = forward(z)
    dz = backward(dy, z, y)
    dcols = im2col(dz, layer.kernel, layer.stride, layer.padding)
    dw = np.matmul(x_mat, dcols.transpose(0, 2, 1)).sum(axis=0).reshape(layer.weight.shape)
    dx = (wmat @ dcols).reshape(b, *layer.in_shape)
    return y, dx, dw, dz.sum(axis=(0, 2, 3))


def assert_layer_bytes_equal(layer, reference, x, dy, per_sample):
    """The layer at one-sample chunks, three-sample chunks and one chunk
    gives the reference's output and gradients byte for byte."""
    want = reference(layer, x, dy)
    for budget in (1, 3 * per_sample, 2**30):
        with mock.patch.object(numlin, "SCRATCH_ELEMENTS", budget):
            y, cache = layer.forward(x)
            dx, grads = backward_with_grads(layer, dy, cache)
        got = (y, dx, grads["weight"], grads["bias"])
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()


@st.composite
def chunked_geometry(draw):
    """(channels in, channels out, H, W, kernel, stride, padding, batch, activation)."""
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kernel - 2 * padding), 9))
    w = draw(st.integers(max(1, kernel - 2 * padding), 9))
    return (
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), h, w, kernel, stride, padding,
        draw(st.integers(1, 40)), draw(st.sampled_from(ACTIVATIONS)),
    )


@given(chunked_geometry(), st.integers(0, 2**32 - 1))
def test_conv2d_chunked_bytes_equal_whole_batch(geom, seed):
    ci, co, h, w, kernel, stride, padding, b, act = geom
    rng = np.random.default_rng(seed)
    layer = Conv2dLayer(rng.standard_normal((co, ci, kernel, kernel)), rng.standard_normal(co),
                        stride, padding, act, (ci, h, w))
    x = rng.standard_normal((b, ci, h, w))
    dy = rng.standard_normal((b, *layer.out_shape))
    _, ho, wo = layer.out_shape
    assert_layer_bytes_equal(layer, whole_batch_conv2d, x, dy, ci * kernel * kernel * ho * wo)


@given(chunked_geometry(), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_upconv2d_chunked_bytes_equal_whole_batch(geom, output_padding, seed):
    ci, co, h, w, kernel, stride, padding, b, act = geom
    rng = np.random.default_rng(seed)
    try:
        layer = Upconv2dLayer(rng.standard_normal((ci, co, kernel, kernel)),
                              rng.standard_normal(co), stride, padding, output_padding, act,
                              (ci, h, w))
    except InputDomainError:
        assume(False)
    x = rng.standard_normal((b, ci, h, w))
    dy = rng.standard_normal((b, *layer.out_shape))
    assert_layer_bytes_equal(layer, whole_batch_upconv2d, x, dy, co * kernel * kernel * h * w)


@pytest.mark.parametrize("in_shape,co,kernel,stride,padding", CONV_CASES)
@pytest.mark.parametrize("act", ACTIVATIONS)
def test_conv2d_chunked_bytes_equal_whole_batch_at_model_shapes(
    in_shape, co, kernel, stride, padding, act
):
    rng = np.random.default_rng(7)
    layer = Conv2dLayer(rng.standard_normal((co, in_shape[0], kernel, kernel)),
                        rng.standard_normal(co), stride, padding, act, in_shape)
    x = rng.standard_normal((23, *in_shape))
    dy = rng.standard_normal((23, *layer.out_shape))
    _, ho, wo = layer.out_shape
    per_sample = in_shape[0] * kernel * kernel * ho * wo
    assert_layer_bytes_equal(layer, whole_batch_conv2d, x, dy, per_sample)


@pytest.mark.parametrize("in_shape,co,kernel,stride,padding,output_padding", UPCONV_CASES)
@pytest.mark.parametrize("act", ACTIVATIONS)
def test_upconv2d_chunked_bytes_equal_whole_batch_at_model_shapes(
    in_shape, co, kernel, stride, padding, output_padding, act
):
    rng = np.random.default_rng(8)
    layer = Upconv2dLayer(rng.standard_normal((in_shape[0], co, kernel, kernel)),
                          rng.standard_normal(co), stride, padding, output_padding, act, in_shape)
    x = rng.standard_normal((23, *in_shape))
    dy = rng.standard_normal((23, *layer.out_shape))
    per_sample = co * kernel * kernel * in_shape[1] * in_shape[2]
    assert_layer_bytes_equal(layer, whole_batch_upconv2d, x, dy, per_sample)


@pytest.mark.parametrize("case", CONV_CASES + UPCONV_CASES)
def test_weight_gradient_matches_tensordot(case):
    # the per-sample GEMM sum equals the batch-wide tensordot it replaced
    # to rounding (the tensordot's bits moved with the BLAS thread count)
    rng = np.random.default_rng(14)
    in_shape, co, kernel, stride, padding = case[:5]
    if len(case) == 5:
        layer = Conv2dLayer(rng.standard_normal((co, in_shape[0], kernel, kernel)),
                            rng.standard_normal(co), stride, padding, "linear", in_shape)
    else:
        layer = Upconv2dLayer(rng.standard_normal((in_shape[0], co, kernel, kernel)),
                              rng.standard_normal(co), stride, padding, case[5], "linear",
                              in_shape)
    x = rng.standard_normal((8, *in_shape))
    dy = rng.standard_normal((8, *layer.out_shape))
    _, cache = layer.forward(x)
    _, grads = backward_with_grads(layer, dy, cache)
    if layer.kind == "conv2d":
        pair = (dy.reshape(8, co, -1), im2col(x, kernel, stride, padding))
    else:
        pair = (x.reshape(8, in_shape[0], -1), im2col(dy, kernel, stride, padding))
    want = np.tensordot(*pair, axes=([0, 2], [0, 2])).reshape(layer.weight.shape)
    np.testing.assert_allclose(grads["weight"], want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("act", ACTIVATIONS)
def test_dense_in_place_activation_bytes_equal_whole_batch(act):
    rng = np.random.default_rng(9)
    layer = DenseLayer(rng.standard_normal((6, 4)), rng.standard_normal(4), act)
    x = rng.standard_normal((17, 6)) * 3.0
    dy = rng.standard_normal((17, 4))
    y, cache = layer.forward(x)
    dx, grads = backward_with_grads(layer, dy, cache)
    got = (y, dx, grads["weight"], grads["bias"])
    for g, w in zip(got, whole_batch_dense(layer, x, dy)):
        assert g.tobytes() == w.tobytes()


EDGE_VALUES = np.array(
    [0.0, -0.0, 1e-320, -1e-320, 1.0, -1.0, 710.0, -710.0, 745.0, -745.0, 800.0, -800.0,
     np.inf, -np.inf, np.nan, -np.nan]
)


def test_sigmoid_bytes_equal_masked_form_at_edge_values():
    z = np.concatenate([EDGE_VALUES, np.random.default_rng(10).standard_normal(200) * 40.0])
    got = ACTIVATION_FNS["sigmoid"][0](z.copy())
    assert got.tobytes() == whole_batch_sigmoid(z).tobytes()
    assert np.array_equal(np.signbit(got[-202:-200]), [False, True])  # NaNs keep their sign


def test_relu_backward_from_output_equals_backward_from_input():
    z = np.concatenate([EDGE_VALUES, np.random.default_rng(11).standard_normal(200)])
    dy = np.random.default_rng(12).standard_normal(z.shape)
    forward, backward = ACTIVATION_FNS["relu"]
    y = forward(z.copy())
    assert backward(dy, y).tobytes() == WHOLE_BATCH_ACTIVATIONS["relu"][1](dy, z, None).tobytes()
    assert y.tobytes() == np.maximum(z, 0.0).tobytes()


def test_conv_forward_peak_memory_within_output_and_budget():
    # at batch 1024 the whole-batch conv2d forward allocated a 58 MB patch
    # matrix (peak 91 MB, upconv2d 149 MB); in sample chunks a forward's
    # allocations stay within its output plus a few chunk budgets (the
    # patches, the scatter index and the scattered chunk)
    rng = np.random.default_rng(13)
    budget = 8 * numlin.SCRATCH_ELEMENTS  # bytes of float64 scratch
    layers = [
        Conv2dLayer(rng.standard_normal((32, 16, 3, 3)), np.zeros(32), 2, 1, "relu", (16, 14, 14)),
        Upconv2dLayer(rng.standard_normal((32, 16, 3, 3)), np.zeros(16), 2, 1, 1, "relu",
                      (32, 7, 7)),
    ]
    for layer in layers:
        x = rng.standard_normal((1024, *layer.in_shape))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            y, _ = layer.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= y.nbytes + 4 * budget, (layer.kind, peak)


def _one_layer_of_each_kind():
    rng = np.random.default_rng(21)
    layers = [
        DenseLayer(rng.standard_normal((6, 4)), rng.standard_normal(4), "relu"),
        Conv2dLayer(rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3), 2, 1, "sigmoid",
                    (2, 7, 6)),
        Upconv2dLayer(rng.standard_normal((2, 3, 3, 3)), rng.standard_normal(3), 2, 1, 1, "relu",
                      (2, 4, 3)),
        FlattenLayer((2, 3, 4)),
        ReshapeLayer((2, 3, 4)),
    ]
    assert {layer.kind for layer in layers} == set(LAYER_KINDS)
    return layers


@pytest.mark.parametrize("layer", _one_layer_of_each_kind(), ids=lambda layer: layer.kind)
def test_backward_dx_bytes_equal_with_and_without_parameter_gradients(layer):
    rng = np.random.default_rng(22)
    in_shape = (layer.in_shape,) if isinstance(layer.in_shape, int) else layer.in_shape
    x = rng.standard_normal((5, *in_shape))
    y, cache = layer.forward(x)
    dy = rng.standard_normal(y.shape)
    dx, _ = backward_with_grads(layer, dy, cache)
    assert dx.shape == x.shape
    assert layer.backward(dy, cache, None).tobytes() == dx.tobytes()
