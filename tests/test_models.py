"""Tests for the model zoo: PCA, MLP/conv autoencoders, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aeaudit.datagen import SyntheticSpec, generate
from aeaudit.errors import FormatError, InputDomainError
from aeaudit.layers import DenseLayer
from aeaudit.models import (
    AutoencoderModel,
    Preprocessing,
    build_conv_autoencoder,
    build_mlp_autoencoder,
    decode_batch,
    encode_batch,
    forward_batch,
    load_model,
    pca_fit,
    save_model,
    write_json,
)
from aeaudit.rng import Rng


def test_pca_fit_diagonal_toy():
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=50, seed=3))
    model = pca_fit(ds.x, d=1)
    v1 = model.basis[:, 0]
    expect = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(np.abs(v1), expect, atol=1e-12)


def test_pca_fit_degenerate_spectrum_tested_via_projector():
    # centered identity has equal singular values; only the projector is
    # well defined, and for d=1 it must be a rank-1 orthogonal projector
    x = np.eye(2)
    model = pca_fit(x, d=1)
    p = model.basis @ model.basis.T
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.isclose(np.trace(p), 1.0)


def test_pca_reconstruction_error_equals_tail_energy():
    rng = Rng(42)
    x = rng.normals((50, 4)) * np.array([3.0, 2.0, 1.0, 0.25])
    model = pca_fit(x, d=2)
    xhat = forward_batch(model, x)[1]
    err = float(np.sum((x - xhat) ** 2)) / (50 * 4)
    tail = float(np.sum(model.singular_values[2:] ** 2)) / (50 * 4)
    assert err == pytest.approx(tail, rel=1e-10)


def test_pca_d_out_of_range():
    x = Rng(1).normals((5, 3))
    with pytest.raises(InputDomainError):
        pca_fit(x, 0)
    with pytest.raises(InputDomainError):
        pca_fit(x, 4)


def test_pca_encode_of_mean_is_zero():
    rng = Rng(9)
    x = rng.normals((20, 4))
    model = pca_fit(x, d=2)
    assert np.allclose(encode_batch(model, model.mean), np.zeros(2), atol=1e-12)


def test_pca_in_plane_point_reconstructs_exactly():
    rng = Rng(10)
    x = rng.normals((30, 5))
    model = pca_fit(x, d=2)
    a = decode_batch(model, np.array([7.0, -3.0]))
    assert np.max(np.abs(forward_batch(model, a)[1] - a)) < 1e-10


def test_pca_residual_orthogonal_to_basis():
    rng = Rng(11)
    x = rng.normals((30, 5))
    model = pca_fit(x, d=2)
    v = rng.normals((5,))
    resid = v - forward_batch(model, v)[1]
    assert np.max(np.abs(resid @ model.basis)) < 1e-8


def test_pca_projector_idempotent_on_batch():
    rng = Rng(12)
    x = rng.normals((40, 6))
    model = pca_fit(x, d=3)
    once = forward_batch(model, x)[1]
    twice = forward_batch(model, once)[1]
    assert np.max(np.abs(twice - once)) < 1e-10


# --- autoencoders --------------------------------------------------------


def test_zero_weight_linear_ae_outputs_zero():
    enc = DenseLayer(np.zeros((2, 1)), np.zeros(1), "linear")
    dec = DenseLayer(np.zeros((1, 2)), np.zeros(2), "linear")
    model = AutoencoderModel([enc], [dec], (2,), 1)
    _, rec = forward_batch(model, np.array([3.0, -4.0]))
    assert np.array_equal(rec, np.zeros(2))


def test_hand_built_projector_ae():
    w = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    enc = DenseLayer(w, np.zeros(1), "linear")
    dec = DenseLayer(w.T, np.zeros(2), "linear")
    model = AutoencoderModel([enc], [dec], (2,), 1)
    _, rec = forward_batch(model, np.array([1.0, 1.0]))
    assert np.allclose(rec, [1.0, 1.0], atol=1e-15)


def test_mlp_builder_shapes_and_latent():
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=0)
    assert model.latent_dim == 1
    assert [l.out_shape for l in model.encoder] == [5, 1]
    assert [l.out_shape for l in model.decoder] == [5, 2]
    # hidden layers relu, final linear
    acts = [l.activation for l in model.encoder + model.decoder]
    assert acts == ["relu", "relu", "relu", "linear"]
    z, rec = forward_batch(model, np.array([0.5, -0.5]))
    assert z.shape == (1,) and rec.shape == (2,)


def test_mlp_builder_rejects_bad_sizes():
    with pytest.raises(InputDomainError):
        build_mlp_autoencoder([2, 3])
    with pytest.raises(InputDomainError):
        build_mlp_autoencoder([2, 3, 4])  # in != out
    with pytest.raises(InputDomainError):
        build_mlp_autoencoder([2, 0, 2])


def test_mlp_builder_seed_determinism():
    a = build_mlp_autoencoder([2, 5, 1, 5, 2], seed=3)
    b = build_mlp_autoencoder([2, 5, 1, 5, 2], seed=3)
    c = build_mlp_autoencoder([2, 5, 1, 5, 2], seed=4)
    wa = a.encoder[0].weight
    assert np.array_equal(wa, b.encoder[0].weight)
    assert not np.array_equal(wa, c.encoder[0].weight)


@pytest.mark.parametrize("hw", [(8, 8), (28, 28), (12, 16)])
def test_conv_builder_shape_chain(hw):
    model = build_conv_autoencoder(image_hw=hw, channels=(4, 6), latent_dim=2, seed=1)
    n = hw[0] * hw[1]
    x = Rng(2).uniforms(0.0, 1.0, (3, n))
    z, rec = forward_batch(model, x)
    assert z.shape == (3, 2)
    assert rec.shape == (3, n)


def test_conv_builder_rejects_odd_sides():
    with pytest.raises(InputDomainError):
        build_conv_autoencoder(image_hw=(7, 8))


def test_conv_sigmoid_output_range():
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(3, 4), latent_dim=2, seed=5)
    x = Rng(6).uniforms(0.0, 1.0, (4, 64))
    _, rec = forward_batch(model, x)
    assert np.all(rec > 0.0) and np.all(rec < 1.0)
    # extreme latents saturate the sigmoid but can never leave [0, 1]
    dec = decode_batch(model, np.array([[1e4, -1e4], [0.0, 0.0]]))
    assert np.all(dec >= 0.0) and np.all(dec <= 1.0)


def _interface_model(kind):
    rng = Rng(1)
    if kind == "pca":
        return pca_fit(rng.normals((20, 6)) * np.arange(1.0, 7.0), d=2), rng.normals((5, 6))
    if kind == "standardized-mlp":
        pre = Preprocessing(mean=np.array([1.0, -2.0, 0.5]), std=np.array([2.0, 0.5, 3.0]))
        model = build_mlp_autoencoder([3, 4, 2, 4, 3], "sigmoid", seed=8, preprocessing=pre)
        return model, rng.normals((5, 3))
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(3, 4), latent_dim=2, seed=5)
    return model, rng.uniforms(0.0, 1.0, (5, 64))


@pytest.mark.parametrize("kind", ["pca", "standardized-mlp", "conv-8x8"])
def test_encode_decode_batch_match_forward(kind):
    model, x = _interface_model(kind)
    z, rec = forward_batch(model, x)
    assert encode_batch(model, x).tobytes() == z.tobytes()
    assert decode_batch(model, encode_batch(model, x)).tobytes() == rec.tobytes()
    assert z.shape == (5, model.latent_dim) and rec.shape == x.shape
    # a single vector in gives single vectors out, equal to its row of the batch
    z1, rec1 = forward_batch(model, x[2])
    assert z1.shape == (model.latent_dim,) and rec1.shape == (model.input_dim,)
    assert encode_batch(model, x[2]).shape == (model.latent_dim,)
    assert decode_batch(model, z[2]).shape == (model.input_dim,)
    assert np.allclose(rec1, rec[2], rtol=1e-12, atol=1e-12)


def test_shape_chain_validation_rejects_mismatch():
    enc = DenseLayer(np.zeros((2, 3)), np.zeros(3), "relu")
    dec = DenseLayer(np.zeros((3, 2)), np.zeros(2), "linear")
    with pytest.raises(InputDomainError):
        AutoencoderModel([enc], [dec], (2,), latent_dim=4)
    dec_bad = DenseLayer(np.zeros((3, 5)), np.zeros(5), "linear")
    with pytest.raises(InputDomainError):
        AutoencoderModel([enc], [dec_bad], (2,), latent_dim=3)


def test_preprocessing_round_trip_in_forward():
    pre = Preprocessing(mean=np.array([10.0, -5.0]), std=np.array([2.0, 4.0]))
    w = np.eye(2)
    enc = DenseLayer(w[:, :1] * 0.0, np.zeros(1), "linear")
    dec = DenseLayer(np.zeros((1, 2)), np.zeros(2), "linear")
    model = AutoencoderModel([enc], [dec], (2,), 1, preprocessing=pre)
    # network outputs 0 in standardized space -> reconstruction is the mean
    _, rec = forward_batch(model, np.array([0.0, 0.0]))
    assert np.allclose(rec, [10.0, -5.0])


def test_non_finite_parameters_rejected():
    w = np.full((2, 1), np.nan)
    with pytest.raises(InputDomainError):
        AutoencoderModel(
            [DenseLayer(w, np.zeros(1), "linear")],
            [DenseLayer(np.zeros((1, 2)), np.zeros(2), "linear")],
            (2,),
            1,
        )


# --- persistence ----------------------------------------------------------


def test_save_load_pca_bit_identical(tmp_path):
    rng = Rng(21)
    model = pca_fit(rng.normals((30, 5)), d=2)
    p = tmp_path / "pca.json"
    save_model(model, p)
    back = load_model(p)
    x = rng.normals((4, 5))
    assert forward_batch(back, x)[1].tobytes() == forward_batch(model, x)[1].tobytes()


def test_save_load_mlp_bit_identical(tmp_path):
    model = build_mlp_autoencoder([3, 6, 2, 6, 3], activation="sigmoid", seed=13)
    p = tmp_path / "mlp.json"
    save_model(model, p)
    back = load_model(p)
    x = Rng(14).normals((7, 3))
    assert forward_batch(back, x)[1].tobytes() == forward_batch(model, x)[1].tobytes()
    assert back.seed == 13


def test_save_load_conv_bit_identical(tmp_path):
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(3, 5), latent_dim=2, seed=2)
    p = tmp_path / "conv.json"
    save_model(model, p)
    back = load_model(p)
    x = Rng(3).uniforms(0.0, 1.0, (2, 64))
    assert forward_batch(back, x)[1].tobytes() == forward_batch(model, x)[1].tobytes()


def test_save_load_preserves_preprocessing(tmp_path):
    pre = Preprocessing(mean=np.array([1.0, 2.0]), std=np.array([3.0, 4.0]))
    model = build_mlp_autoencoder([2, 3, 1, 3, 2], seed=1, preprocessing=pre)
    p = tmp_path / "pre.json"
    save_model(model, p)
    back = load_model(p)
    assert np.array_equal(back.preprocessing.mean, pre.mean)
    assert np.array_equal(back.preprocessing.std, pre.std)


def test_load_wrong_version(tmp_path):
    p = tmp_path / "v999.json"
    p.write_text('{"format": "aeaudit-model", "version": 999, "kind": "pca"}')
    with pytest.raises(FormatError, match="version"):
        load_model(p)


def test_load_truncated_file(tmp_path):
    model = build_mlp_autoencoder([2, 3, 1, 3, 2], seed=1)
    p = tmp_path / "full.json"
    save_model(model, p)
    clipped = tmp_path / "clipped.json"
    clipped.write_bytes(p.read_bytes()[: p.stat().st_size // 2])
    with pytest.raises(FormatError):
        load_model(clipped)


def test_load_well_typed_invariant_violation_stays_input_domain_error(tmp_path):
    p = tmp_path / "model.json"
    save_model(build_mlp_autoencoder([2, 3, 1, 3, 2], seed=1), p)
    doc = json.loads(p.read_text())
    doc["latent_dim"] = 2  # the encoder ends in 1 unit
    p.write_text(json.dumps(doc))
    with pytest.raises(InputDomainError, match="latent_dim") as exc:
        load_model(p)
    assert not isinstance(exc.value, FormatError)


def test_load_missing_format_tag(tmp_path):
    p = tmp_path / "other.json"
    p.write_text('{"hello": "world"}')
    with pytest.raises(FormatError, match="format"):
        load_model(p)


# --- write_json against the json.dump it replaced ----------------------------


def reference_write_json(doc, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=1, allow_nan=False)
        f.write("\n")


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0**-1074, 1e16, 1e-7, 0.1]
_NUMBERS = st.one_of(
    st.integers(),
    st.integers(-(2**100), 2**100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
_TEXT = st.one_of(st.text(), st.sampled_from(["", '"', "\\", "\n\t\x00\x7f", "é", "\u2028", "😀"]))
_LEAVES = st.one_of(
    _NUMBERS, st.booleans(), st.none(), _TEXT,
    st.lists(st.one_of(_NUMBERS, st.booleans()), max_size=5),  # numbers mixed with bools
    st.lists(st.lists(_NUMBERS, max_size=3), max_size=4),  # lists of number lists
)
JSON_DOCS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=25,
)


def _outcome(writer, doc, path):
    """The file's bytes, or the class of the exception the writer raised."""
    try:
        writer(doc, path)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    return path.read_bytes()


@given(JSON_DOCS)
def test_write_json_bytes_equal_json_dump(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("json")
    want = _outcome(reference_write_json, doc, tmp / "ref.json")
    assert isinstance(want, bytes)
    assert _outcome(write_json, doc, tmp / "doc.json") == want


@pytest.mark.parametrize(
    "doc",
    [{}, [], {"a": [], "b": {}}, [[], [1]], [[1, 2], [3.5, -0.0]], [[True, 1]], [(1, 2), [3]],
     {1: "int", 2: "keys"}, {1.5: 0, -0.0: 1}, {True: 1, False: 0}, {None: [None]},
     [np.float64(0.1), 1, 2.5], {"s": [[np.float64(-0.0)]]}, 7, "top", None, -2.5],
)
def test_write_json_bytes_equal_json_dump_at_edges(tmp_path, doc):
    want = _outcome(reference_write_json, doc, tmp_path / "ref.json")
    assert isinstance(want, bytes)
    assert _outcome(write_json, doc, tmp_path / "doc.json") == want


_NOT_FINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]
# A bare object's repr holds its memory address, which changes from run to run;
# its id elides the address so the test names stay the same between runs.
_NOT_JSON = [np.int64(3), np.bool_(True), pytest.param(object(), id="<object object at ...>"),
             {1, 2}, b"bytes", np.array([1.0])]


@pytest.mark.parametrize("bad", _NOT_FINITE + _NOT_JSON, ids=repr)
@pytest.mark.parametrize(
    "where",
    [lambda v: v, lambda v: [1.0, v], lambda v: [[1.0, 2.0], [3.0, v]], lambda v: {"k": [v]},
     lambda v: {v: 1} if isinstance(v, float) else {"k": v}],
    ids=["top", "number-list", "nested-number-list", "dict", "key"],
)
def test_write_json_raises_what_json_dump_raises(tmp_path, bad, where):
    doc = where(bad)
    want = _outcome(reference_write_json, doc, tmp_path / "ref.json")
    assert want in (ValueError, TypeError)
    assert _outcome(write_json, doc, tmp_path / "doc.json") is want
