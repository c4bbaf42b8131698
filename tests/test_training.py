"""Tests for loss, backprop, optimizers, and the training loop."""

import warnings

import numpy as np
import pytest

from aeaudit import training
from aeaudit.anomaly import sample_scores
from aeaudit.datagen import Dataset, SyntheticSpec, generate
from aeaudit.errors import InputDomainError, TrainingDivergedError
from aeaudit.layers import LAYER_KINDS, DenseLayer
from aeaudit.models import (
    AutoencoderModel,
    Preprocessing,
    build_conv_autoencoder,
    build_mlp_autoencoder,
    pca_fit,
    save_model,
)
from aeaudit.rng import Rng
from aeaudit.training import (
    Adam,
    Sgd,
    TrainConfig,
    _bind,
    backward,
    check_gradients,
    input_gradient,
    train,
)


def test_zero_residual_batch_gives_zero_gradients():
    # projector AE reconstructs in-plane data exactly; at the optimum the
    # gradient of every parameter vanishes
    w = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    model = AutoencoderModel(
        [DenseLayer(w, np.zeros(1), "linear")],
        [DenseLayer(w.T, np.zeros(2), "linear")],
        (2,),
        1,
    )
    alphas = Rng(1).uniforms(-2.0, 2.0, (8, 1))
    batch = alphas * np.array([1.0, 1.0])
    loss, grads = backward(model, batch)
    assert loss < 1e-28
    for g in grads:
        for arr in g.values():
            assert np.max(np.abs(arr)) < 1e-12


def test_backward_hand_computable_1x1():
    # single dense linear "autoencoder" on 1-D data: xhat = x*w + b
    # L = (xhat - x)^2, dL/dw = 2 (xhat - x) x
    w = np.array([[0.7]])
    model = AutoencoderModel(
        [DenseLayer(np.array([[1.0]]), np.zeros(1), "linear")],
        [DenseLayer(w, np.zeros(1), "linear")],
        (1,),
        1,
    )
    x = np.array([[2.0]])
    xhat = 2.0 * 0.7
    loss, grads = backward(model, x)
    assert loss == pytest.approx((xhat - 2.0) ** 2)
    assert grads[1]["weight"][0, 0] == pytest.approx(2.0 * (xhat - 2.0) * 2.0)


@pytest.mark.parametrize("activation", ["linear", "relu", "sigmoid"])
def test_gradient_check_dense(activation):
    model = build_mlp_autoencoder([3, 5, 2, 5, 3], activation=activation, seed=11)
    batch = Rng(7).normals((4, 3))
    assert check_gradients(model, batch, seed=1) < 1e-6


def test_gradient_check_conv_and_upconv():
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(3, 4), latent_dim=2, seed=21)
    batch = Rng(9).uniforms(0.0, 1.0, (3, 64))
    assert check_gradients(model, batch, seed=2) < 1e-6


def test_gradient_check_with_preprocessing():
    # sigmoid keeps the loss smooth everywhere, so this isolates the
    # standardize/de-standardize chain rule from ReLU kink effects
    pre = Preprocessing(mean=np.array([1.0, -2.0, 0.5]), std=np.array([2.0, 0.5, 1.5]))
    model = build_mlp_autoencoder([3, 4, 2, 4, 3], activation="sigmoid", seed=3, preprocessing=pre)
    batch = Rng(8).normals((5, 3)) * 3.0
    assert check_gradients(model, batch, seed=3) < 1e-6


def test_input_gradient_matches_finite_differences():
    mlp = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=17)
    # the conv case runs the backward pass through the flat <-> (1, 8, 8)
    # reshape; a few sampled pixels pin that path
    conv = build_conv_autoencoder(image_hw=(8, 8), channels=(3, 4), latent_dim=2, seed=5)
    cases = [
        (mlp, np.array([0.3, -0.8]), range(2)),
        (conv, Rng(6).uniforms(0.0, 1.0, (64,)), (0, 9, 27, 36, 63)),
    ]
    for model, a, coords in cases:
        loss, grad = input_gradient(model, a)
        assert grad.shape == a.shape
        h = 1e-6
        for k in coords:
            ap = a.copy()
            am = a.copy()
            ap[k] += h
            am[k] -= h
            lp, _ = input_gradient(model, ap)
            lm, _ = input_gradient(model, am)
            fd = (lp - lm) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_input_gradient_through_preprocessing():
    pre = Preprocessing(mean=np.array([3.0, -1.0]), std=np.array([0.5, 2.0]))
    model = build_mlp_autoencoder([2, 4, 1, 4, 2], activation="sigmoid", seed=4, preprocessing=pre)
    a = np.array([2.0, 1.0])
    loss, grad = input_gradient(model, a)
    h = 1e-6
    for k in range(2):
        ap, am = a.copy(), a.copy()
        ap[k] += h
        am[k] -= h
        fd = (input_gradient(model, ap)[0] - input_gradient(model, am)[0]) / (2 * h)
        assert grad[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_input_gradient_on_rows_matches_per_row_calls():
    # a batch takes other BLAS paths than single rows, so rows may differ
    # from per-row calls by rounding only
    pre = Preprocessing(mean=np.array([3.0, -1.0]), std=np.array([0.5, 2.0]))
    cases = [
        (build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=17),
         Rng(1).normals((6, 2)) * 3.0),
        (build_mlp_autoencoder([2, 4, 1, 4, 2], activation="sigmoid", seed=4, preprocessing=pre),
         Rng(2).normals((5, 2)) * 2.0),
        (build_conv_autoencoder(image_hw=(8, 8), channels=(3, 4), latent_dim=2, seed=5),
         Rng(6).uniforms(0.0, 1.0, (4, 64))),
    ]
    for model, rows in cases:
        losses, grads = input_gradient(model, rows)
        assert losses.shape == (rows.shape[0],) and grads.shape == rows.shape
        for row, loss, grad in zip(rows, losses, grads):
            single_loss, single_grad = input_gradient(model, row)
            assert isinstance(single_loss, float) and single_grad.shape == row.shape
            assert loss == pytest.approx(single_loss, rel=1e-12)
            assert np.max(np.abs(grad - single_grad)) <= 1e-12 * np.max(np.abs(single_grad))


def test_adam_zero_gradient_is_exact_noop():
    model = build_mlp_autoencoder([2, 3, 1, 3, 2], seed=5)
    flat, grad, _ = _bind(model.layers())
    params = [l.params() for l in model.layers()]
    before = [{k: v.copy() for k, v in p.items()} for p in params]
    opt = Adam(flat, learning_rate=0.1)
    grad[...] = 0.0
    opt.step(grad)
    for p, b in zip(params, before):
        for k in p:
            assert np.array_equal(p[k], b[k])


def _spy_on_layer_backward(monkeypatch) -> list:
    """(layer, grads) of every layer backward call from now on."""
    calls = []
    for cls in LAYER_KINDS.values():
        def spy(self, dy, cache, grads, _original=cls.backward):
            calls.append((self, grads))
            return _original(self, dy, cache, grads)
        monkeypatch.setattr(cls, "backward", spy)
    return calls


def test_input_gradient_asks_no_layer_for_parameter_gradients(monkeypatch):
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(2, 3), latent_dim=2, seed=4)
    calls = _spy_on_layer_backward(monkeypatch)
    input_gradient(model, Rng(3).uniforms(0.0, 1.0, (3, 64)))
    assert [layer for layer, _ in calls] == model.layers()[::-1]
    assert all(grads is None for _, grads in calls)


def test_train_layers_write_into_views_of_the_one_buffer_adam_steps(monkeypatch):
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(2, 3), latent_dim=2, seed=4)
    calls = _spy_on_layer_backward(monkeypatch)
    steps = []
    adam_step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self, g: (steps.append(g), adam_step(self, g)))
    trained, _ = train(model, Dataset(x=Rng(5).uniforms(0.0, 1.0, (10, 64))),
                       TrainConfig(epochs=2, batch_size=4))
    assert len(steps) == 6 and all(g is steps[0] for g in steps)
    buffer = steps[0]
    layers = trained.layers()
    assert len(calls) == 6 * len(layers)
    first = {}
    for layer, grads in calls:
        assert layer in layers and first.setdefault(id(layer), grads) is grads
        assert grads.keys() == layer.params().keys()
        for name, view in grads.items():
            assert view.base is buffer and view.shape == getattr(layer, name).shape
    # the views tile the buffer: each element lies in exactly one of them
    buffer[...] = 0.0
    for grads in first.values():
        for view in grads.values():
            view += 1.0
    assert np.all(buffer == 1.0)


def _reference_step(kind, params, grads, state, lr, t, b1=0.9, b2=0.999, eps=1e-8):
    """Per-tensor optimizer update, one tensor at a time."""
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        for name in p:
            if kind == "sgd":
                p[name] = p[name] - lr * g[name]
                continue
            m[name] = b1 * m[name] + (1.0 - b1) * g[name]
            v[name] = b2 * v[name] + (1.0 - b2) * g[name] ** 2
            mhat = m[name] / (1.0 - b1**t)
            vhat = v[name] / (1.0 - b2**t)
            p[name] = p[name] - lr * mhat / (np.sqrt(vhat) + eps)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_flat_optimizer_matches_per_tensor_reference(kind):
    models = [
        build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=3),
        build_conv_autoencoder(image_hw=(8, 8), channels=(2, 3), latent_dim=2, seed=4),
    ]
    rng = Rng(12)
    for model in models:
        flat, grad, views = _bind(model.layers())
        params = [l.params() for l in model.layers()]
        ref = [{k: v.copy() for k, v in p.items()} for p in params]
        state = {
            "m": [{k: np.zeros_like(v) for k, v in p.items()} for p in params],
            "v": [{k: np.zeros_like(v) for k, v in p.items()} for p in params],
        }
        opt = Adam(flat, learning_rate=0.05) if kind == "adam" else Sgd(flat, 0.05)
        for t in range(1, 7):
            grads = [{k: rng.normals(v.shape) for k, v in p.items()} for p in ref]
            for view, g in zip(views, grads):
                for k in view:
                    view[k][...] = g[k]
            opt.step(grad)
            _reference_step(kind, ref, grads, state, 0.05, t)
            for p, r in zip(params, ref):
                for k in p:
                    assert p[k].tobytes() == r[k].tobytes()


def test_train_linear_ae_on_diagonal_toy_reaches_pca_floor():
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=40, seed=2))
    model = build_mlp_autoencoder([2, 1, 2], activation="linear", seed=1)
    cfg = TrainConfig(epochs=500, batch_size=40, learning_rate=1e-2, seed=0, shuffle=False)
    trained, report = train(model, ds, cfg)
    # rank-1 data: PCA with d=1 achieves exactly zero loss
    pca = pca_fit(ds.x, 1)
    floor = sample_scores(pca, ds.x).mean()
    assert floor < 1e-20
    assert report.final_loss < 1e-4
    assert len(report.epoch_losses) == 500


def test_train_convex_case_final_not_above_first():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=50, seed=6))
    model = build_mlp_autoencoder([2, 1, 2], activation="linear", seed=2)
    cfg = TrainConfig(epochs=200, batch_size=50, learning_rate=5e-3, seed=1, shuffle=False)
    _, report = train(model, ds, cfg)
    assert report.final_loss <= report.epoch_losses[0]


def test_train_deterministic_same_seed():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=30, seed=7))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=3)
    cfg = TrainConfig(epochs=20, batch_size=8, learning_rate=1e-3, seed=9)
    t1, r1 = train(model, ds, cfg)
    t2, r2 = train(model, ds, cfg)
    assert r1.epoch_losses == r2.epoch_losses
    for l1, l2 in zip(t1.layers(), t2.layers()):
        for k in l1.params():
            assert l1.params()[k].tobytes() == l2.params()[k].tobytes()
    # different shuffle seed changes the trajectory
    _, r3 = train(model, ds, TrainConfig(epochs=20, batch_size=8, learning_rate=1e-3, seed=10))
    assert r3.epoch_losses != r1.epoch_losses


@pytest.mark.parametrize("block_epochs, block_indices", [(1, 250), (1, 50), (8, 50)])
def test_train_shuffle_blocks_give_the_same_model(tmp_path, monkeypatch, block_epochs, block_indices):
    # 100 rows: (1, 250) makes 2-epoch blocks (the last of 201 epochs a
    # partial one), (1, 50) 1-epoch blocks, and (8, 50) 8-epoch blocks, the
    # floor taking over from an index cap below one epoch
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=100, seed=11))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=0)
    cfg = TrainConfig(epochs=201, batch_size=32, learning_rate=1e-2, seed=3)
    default, default_report = train(model, ds, cfg)
    monkeypatch.setattr(training, "SHUFFLE_BLOCK_EPOCHS", block_epochs)
    monkeypatch.setattr(training, "SHUFFLE_BLOCK_INDICES", block_indices)
    blocked, blocked_report = train(model, ds, cfg)
    save_model(default, tmp_path / "default.json")
    save_model(blocked, tmp_path / "blocked.json")
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "blocked.json").read_bytes()
    assert default_report.epoch_losses == blocked_report.epoch_losses


def test_train_leaves_input_model_untouched():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=20, seed=8))
    model = build_mlp_autoencoder([2, 3, 1, 3, 2], seed=4)
    w_before = model.encoder[0].weight.copy()
    train(model, ds, TrainConfig(epochs=5, batch_size=10, learning_rate=1e-2, seed=0))
    assert np.array_equal(model.encoder[0].weight, w_before)


def test_train_divergence_reports_last_good_epoch():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=20, seed=9))
    model = build_mlp_autoencoder([2, 4, 1, 4, 2], activation="linear", seed=5)
    cfg = TrainConfig(epochs=200, batch_size=20, learning_rate=1e6, optimizer="sgd", seed=0)
    with pytest.raises(TrainingDivergedError) as err:
        train(model, ds, cfg)
    assert err.value.last_good_epoch == 1
    assert "non-finite loss in epoch 2" in str(err.value)


def test_train_divergence_names_non_finite_parameter():
    # tiny inputs keep epoch 0's step finite; epoch 1's step overflows the
    # first weight while its loss is still finite, so the parameter check fires
    base = generate(SyntheticSpec(family="gaussian", samples_per_component=20, seed=9))
    ds = Dataset(x=base.x * 1e-8)
    model = build_mlp_autoencoder([2, 1, 2], activation="linear", seed=5)
    cfg = TrainConfig(epochs=20, batch_size=40, learning_rate=1e87, optimizer="sgd", seed=0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError) as err:
        train(model, ds, cfg)
    assert err.value.last_good_epoch == 0
    assert "non-finite parameter dense.weight in epoch 1" in str(err.value)


def test_train_divergence_emits_no_numpy_warning():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=20, seed=9))
    model = build_mlp_autoencoder([2, 4, 1, 4, 2], activation="linear", seed=5)
    cfg = TrainConfig(epochs=20, batch_size=20, learning_rate=1e308, optimizer="sgd", seed=0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TrainingDivergedError):
            train(model, ds, cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_train_config_validation_and_json():
    with pytest.raises(InputDomainError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(InputDomainError):
        TrainConfig(batch_size=0)
    with pytest.raises(InputDomainError):
        TrainConfig(optimizer="lbfgs")
    cfg = TrainConfig.from_json_dict({"epochs": 3, "learning_rate": 0.5})
    assert cfg.epochs == 3 and cfg.learning_rate == 0.5
    with pytest.raises(InputDomainError):
        TrainConfig.from_json_dict({"momentum": 0.9})
    for bad in ({"epochs": "ten"}, {"epochs": 2.5}, {"seed": True}, {"shuffle": 1},
                {"learning_rate": "0.1"}, {"checkpoint_dir": 3}):
        with pytest.raises(InputDomainError):
            TrainConfig.from_json_dict(bad)
    for bad in ({"eps": -1.0}, {"eps": 0.0}, {"beta1": 1.0}, {"beta1": -0.1},
                {"beta2": 1.5}, {"beta2": float("nan")}, {"learning_rate": float("nan")},
                {"learning_rate": float("inf")}):
        name = next(iter(bad))
        with pytest.raises(InputDomainError, match=name):
            TrainConfig.from_json_dict(bad)
    cfg = TrainConfig.from_json_dict({"beta1": 0.0, "beta2": 0.0, "eps": 1e-300})
    assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.0, 0.0, 1e-300)


def test_checkpointing_writes_snapshots(tmp_path):
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=10, seed=3))
    model = build_mlp_autoencoder([2, 1, 2], seed=0)
    cfg = TrainConfig(
        epochs=6,
        batch_size=10,
        learning_rate=1e-3,
        seed=0,
        checkpoint_interval=2,
        checkpoint_dir=str(tmp_path),
    )
    train(model, ds, cfg)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["epoch_000002.json", "epoch_000004.json", "epoch_000006.json"]
