"""Tests for adversarial anomaly construction and search."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aeaudit import numlin
from aeaudit.adversary import (
    AdversaryResult,
    _push_off,
    bias_decomposition_residual,
    build_linear_autoencoder,
    build_relu_toy,
    construct_linear_ae_adversary,
    construct_pca_adversary,
    latent_decode_adversary,
    optimal_biases,
    pgd_adversary,
    relu_toy_adversary,
    write_pgm,
)
from aeaudit.anomaly import is_undetected, sample_scores, score
from aeaudit.datagen import Dataset, SyntheticSpec, generate
from aeaudit.errors import InputDomainError, SubspaceMismatchError
from aeaudit.models import (
    build_conv_autoencoder,
    build_mlp_autoencoder,
    forward_batch,
    pca_fit,
)
from aeaudit.numlin import pairwise_min_distance
from aeaudit.rng import Rng
from aeaudit.training import TrainConfig, train


def linear_equivalence_data(m=200, seed=1000):
    """5-dim data with a strong 2-factor structure plus isotropic noise."""
    rng = Rng(seed)
    z = rng.normals((m, 2)) * np.array([3.0, 2.0])
    b = np.array([[1.0, 0.5, -0.3, 0.8, 0.1], [-0.2, 1.0, 0.7, -0.5, 0.4]])
    x = z @ b + 0.3 * rng.normals((m, 5)) + np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    return x


# --- PCA construction ------------------------------------------------------


def test_pca_adversary_on_diagonal_toy():
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=60, seed=1))
    model = pca_fit(ds.x, d=1)
    res = construct_pca_adversary(model, ds.x, delta=100.0)
    assert res.loss < 1e-10
    assert res.min_dist_to_train > 100.0
    # the adversary stays on the diagonal ray
    assert abs(res.a[0] - res.a[1]) < 1e-9
    assert pairwise_min_distance(ds.x, res.a) == res.min_dist_to_train


def test_pca_adversary_distance_verified_by_exhaustive_scan():
    rng = Rng(2)
    x = rng.normals((80, 6))
    model = pca_fit(x, d=3)
    res = construct_pca_adversary(model, x, delta=25.0)
    brute = min(float(np.linalg.norm(row - res.a)) for row in x)
    assert brute > 25.0
    assert res.min_dist_to_train == pytest.approx(brute, rel=1e-12)


def test_pca_adversary_is_undetected():
    rng = Rng(3)
    x = rng.normals((100, 5))
    model = pca_fit(x, d=2)
    res = construct_pca_adversary(model, x, delta=50.0)
    table = score(model, Dataset(x=x))
    verdict = is_undetected(res.a, model, table)
    assert verdict.undetected
    assert verdict.ratio < 1.0


def test_pca_adversary_rejects_bad_delta():
    rng = Rng(4)
    x = rng.normals((10, 3))
    model = pca_fit(x, d=1)
    for delta in (0.0, 1e200):  # 1e200 is finite, its square is not
        with pytest.raises(InputDomainError):
            construct_pca_adversary(model, x, delta=delta)


def test_pca_adversary_custom_direction():
    rng = Rng(5)
    x = rng.normals((40, 4))
    model = pca_fit(x, d=2)
    res = construct_pca_adversary(model, x, delta=30.0, direction=np.array([0.0, 1.0]))
    assert res.loss < 1e-10
    assert res.min_dist_to_train > 30.0


def test_zero_loss_span_membership_property():
    # decoded latent points reconstruct exactly, wherever they sit
    rng = Rng(6)
    x = rng.normals((50, 6))
    model = pca_fit(x, d=3)
    from aeaudit.models import decode_batch

    for _ in range(100):
        c = rng.normals((3,)) * 10.0 ** rng.randbelow(4)
        a = decode_batch(model, c)
        assert sample_scores(model, a[None, :])[0] < 1e-10


# --- linear AE construction -------------------------------------------------


@pytest.fixture(scope="module")
def converged_linear_ae():
    x = linear_equivalence_data()
    model = build_mlp_autoencoder([5, 2, 5], activation="linear", seed=2)
    cfg = TrainConfig(
        epochs=5000, batch_size=200, learning_rate=1e-2, optimizer="adam", seed=0, shuffle=False
    )
    trained, _ = train(model, Dataset(x=x), cfg)
    return trained, x


def test_linear_ae_adversary_matches_pca_ray(converged_linear_ae):
    trained, x = converged_linear_ae
    res = construct_linear_ae_adversary(trained, x, delta=50.0)
    assert res.loss < 1e-6
    assert res.min_dist_to_train > 50.0
    pca_res = construct_pca_adversary(pca_fit(x, 2), x, delta=50.0)
    # both walk to infinity inside the same 2-plane: the offsets from the
    # data mean must be parallel up to the plane's geometry
    mean = x.mean(axis=0)
    u1 = res.a - mean
    u2 = pca_res.a - mean
    basis = pca_fit(x, 2).basis
    # residual of each offset outside the principal plane is negligible
    assert np.linalg.norm(u1 - basis @ (basis.T @ u1)) < 1e-3 * np.linalg.norm(u1)
    assert np.linalg.norm(u2 - basis @ (basis.T @ u2)) < 1e-10 * np.linalg.norm(u2)


def test_linear_ae_reconstructions_match_pca(converged_linear_ae):
    trained, x = converged_linear_ae
    pca = pca_fit(x, 2)
    _, rec_ae = forward_batch(trained, x)
    rec_pca = forward_batch(pca, x)[1]
    scale = float(np.max(np.abs(x)))
    assert float(np.max(np.abs(rec_ae - rec_pca))) < 1e-3 * scale


def test_linear_ae_adversary_loss_under_model(converged_linear_ae):
    trained, x = converged_linear_ae
    res = construct_linear_ae_adversary(trained, x, delta=10.0)
    _, rec = forward_batch(trained, res.a[None, :])
    direct = float(np.mean((res.a - rec[0]) ** 2))
    assert res.loss == pytest.approx(direct, rel=1e-12)
    assert res.loss < 1e-6


def test_linear_ae_adversary_refuses_unconverged_model():
    x = linear_equivalence_data()
    model = build_mlp_autoencoder([5, 2, 5], activation="linear", seed=2)
    cfg = TrainConfig(epochs=1, batch_size=200, learning_rate=1e-2, seed=0, shuffle=False)
    barely, _ = train(model, Dataset(x=x), cfg)
    with pytest.raises(SubspaceMismatchError) as err:
        construct_linear_ae_adversary(barely, x, delta=10.0)
    assert err.value.angles is not None
    assert float(np.max(err.value.angles)) >= 1e-2


def test_linear_ae_adversary_rejects_nonlinear_model():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=30, seed=7))
    model = build_mlp_autoencoder([2, 4, 1, 4, 2], activation="relu", seed=0)
    with pytest.raises(InputDomainError):
        construct_linear_ae_adversary(model, ds.x, delta=5.0)


# --- optimal biases ---------------------------------------------------------


def test_optimal_biases_centered_data_are_zero():
    rng = Rng(8)
    x = rng.normals((50, 4))
    x = x - x.mean(axis=0)
    w_enc = rng.normals((4, 2))
    w_dec = rng.normals((2, 4))
    b_enc, b_dec = optimal_biases(w_enc, w_dec, x)
    assert np.max(np.abs(b_enc)) < 1e-12
    assert np.max(np.abs(b_dec)) < 1e-12


def test_optimal_biases_beat_random_perturbations():
    rng = Rng(9)
    x = rng.normals((40, 3)) + np.array([5.0, -2.0, 1.0])
    w_enc = rng.normals((3, 2))
    w_dec = rng.normals((2, 3))
    b_enc, b_dec = optimal_biases(w_enc, w_dec, x)
    model = build_linear_autoencoder(w_enc, w_dec, b_enc, b_dec)
    base = float(np.mean(sample_scores(model, x)))
    for _ in range(100):
        pb_enc = b_enc + 0.1 * rng.normals((2,))
        pb_dec = b_dec + 0.1 * rng.normals((3,))
        perturbed = build_linear_autoencoder(w_enc, w_dec, pb_enc, pb_dec)
        assert base <= float(np.mean(sample_scores(perturbed, x))) + 1e-15


def test_optimal_biases_equal_centered_bias_free_loss():
    rng = Rng(10)
    x = rng.normals((30, 4)) + np.array([1.0, 2.0, 3.0, 4.0])
    w_enc = rng.normals((4, 2)) * 0.5
    w_dec = rng.normals((2, 4)) * 0.5
    b_enc, b_dec = optimal_biases(w_enc, w_dec, x)
    with_bias = build_linear_autoencoder(w_enc, w_dec, b_enc, b_dec)
    bias_free = build_linear_autoencoder(w_enc, w_dec, np.zeros(2), np.zeros(4))
    xc = x - x.mean(axis=0)
    loss_bias = float(np.mean(sample_scores(with_bias, x)))
    # bias-free model on centered data: same network-space residuals
    _, rec = forward_batch(bias_free, xc)
    loss_centered = float(np.mean(np.mean((xc - rec) ** 2, axis=1)))
    assert abs(loss_bias - loss_centered) < 1e-10


def test_bias_decomposition_residual_zero_at_closed_form():
    rng = Rng(11)
    x = rng.normals((25, 5)) + 10.0
    w_enc = rng.normals((5, 2))
    w_dec = rng.normals((2, 5))
    b_enc, b_dec = optimal_biases(w_enc, w_dec, x)
    assert bias_decomposition_residual(w_enc, w_dec, b_enc, b_dec, x) < 1e-10
    # a wrong bias leaves a positive residual
    assert bias_decomposition_residual(w_enc, w_dec, b_enc + 1.0, b_dec, x) > 1e-6


def test_optimal_biases_shape_validation():
    rng = Rng(12)
    with pytest.raises(InputDomainError):
        optimal_biases(rng.normals((3, 2)), rng.normals((3, 2)), rng.normals((5, 3)))


# --- ReLU toy ---------------------------------------------------------------


def test_relu_toy_reconstructs_training_family():
    model = build_relu_toy(beta=1.5, data_range=(0.0, 1.0))
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=100, seed=13))
    scores = sample_scores(model, ds.x)
    assert float(scores.max()) < 1e-12


def test_relu_toy_adversary_far_out():
    res = relu_toy_adversary(beta=1.5, data_range=(0.0, 1.0), c=10.0)
    assert res.loss < 1e-12
    assert res.min_dist_to_train > 9.0 * np.sqrt(2.0) - np.sqrt(2.0)
    assert np.array_equal(res.a, [10.0, 10.0])
    assert res.annotation is None
    # the toy reconstructs training data to exactly zero loss, so the
    # <=-criterion degenerates to float round-off; assert the substance:
    # the far-out adversary scores no higher than any training sample plus
    # round-off
    model = build_relu_toy(1.5, (0.0, 1.0))
    ds = generate(SyntheticSpec(family="diagonal", samples_per_component=50, seed=14))
    table = score(model, ds)
    assert res.loss <= table.min_score + 1e-24


def test_relu_toy_inside_range_is_flagged_not_an_error():
    res = relu_toy_adversary(beta=2.0, data_range=(0.0, 1.0), c=0.5)
    assert res.loss < 1e-12
    assert res.annotation == "in_distribution"
    assert res.min_dist_to_train == 0.0


def test_relu_toy_negative_beta():
    model = build_relu_toy(beta=-0.7, data_range=(-1.0, 2.0))
    ds = generate(
        SyntheticSpec(family="diagonal", samples_per_component=50, seed=15, alpha_range=(-1.0, 2.0))
    )
    assert float(sample_scores(model, ds.x).max()) < 1e-12
    # with beta < 0 the live linear ray points toward negative c
    res = relu_toy_adversary(beta=-0.7, data_range=(-1.0, 2.0), c=-25.0)
    assert res.loss < 1e-12
    assert res.min_dist_to_train > 20.0


def test_relu_toy_validation():
    with pytest.raises(InputDomainError):
        build_relu_toy(beta=0.0, data_range=(0.0, 1.0))
    with pytest.raises(InputDomainError):
        build_relu_toy(beta=1.0, data_range=(1.0, 0.0))


# --- latent decode -----------------------------------------------------------


def test_latent_decode_on_trained_model():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=50, seed=16))
    model = build_mlp_autoencoder([2, 5, 2, 5, 2], activation="relu", seed=3)
    trained, _ = train(
        model, ds, TrainConfig(epochs=200, batch_size=50, learning_rate=1e-2, seed=0)
    )
    res = latent_decode_adversary(trained, np.array([0.3, -0.2]), ds.x)
    # the reported loss is exactly the decoded sample's anomaly score
    assert res.loss == pytest.approx(
        float(sample_scores(trained, res.a[None, :])[0]), rel=1e-12
    )
    assert res.min_dist_to_train == pairwise_min_distance(ds.x, res.a)
    assert res.method == "latent_decode"


def test_latent_decode_sigmoid_model_pixels_in_unit_interval():
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(3, 4), latent_dim=2, seed=4)
    x_train = Rng(17).uniforms(0.0, 1.0, (10, 64))
    res = latent_decode_adversary(model, np.array([0.5, -0.5]), x_train)
    assert np.all(res.a >= 0.0) and np.all(res.a <= 1.0)


def test_latent_decode_validates_latent_length():
    model = build_mlp_autoencoder([2, 3, 1, 3, 2], seed=0)
    with pytest.raises(InputDomainError):
        latent_decode_adversary(model, np.array([1.0, 2.0]), np.zeros((3, 2)))


# --- PGD ----------------------------------------------------------------------


def push_off_reference(xm, a, delta):
    """The push-off of one row at a time, as PGD ran it before the rows of
    a step were pushed together."""
    near_idx, near_dist = numlin.nearest_row(xm, a)
    if near_dist > delta:
        return a
    direction = a - xm[near_idx]
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        direction, norm = np.eye(a.shape[0])[0], 1.0
    w = xm - xm[near_idx]
    b = w @ (direction / norm)
    s = b * b - np.sum(w * w, axis=1) + delta * delta
    hit = s >= 0.0
    lo, hi = b[hit] - np.sqrt(s[hit]), b[hit] + np.sqrt(s[hit])
    t = delta * (1.0 + 1e-9)
    covering = (lo <= t) & (hi >= t)
    while covering.any():
        t = float(hi[covering].max()) * (1.0 + 1e-9)
        covering = (lo <= t) & (hi >= t)
    return xm[near_idx] + t * direction / norm


def push_off_rows(rng, m, n, k, delta):
    """m training rows of width n, the first two closer than 2 * delta, and
    k rows cycling through four kinds: on a training row, in the corner
    between the first two training rows, farther than delta from every
    training row, and drawn at random."""
    xm = rng.standard_normal((m, n)) * rng.uniform(0.2, 4.0)
    if m > 1:
        u = rng.standard_normal(n)
        xm[1] = xm[0] + rng.uniform(0.5, 1.9) * delta * u / np.linalg.norm(u)
    rows = rng.standard_normal((k, n)) * 4.0
    rows[0::4] = xm[rng.integers(m, size=len(rows[0::4]))]
    rows[1::4] = (xm[0] + xm[min(1, m - 1)]) / 2.0 + 1e-3 * delta * rng.standard_normal(n)
    rows[2::4] = xm.max(axis=0) + 2.0 * delta
    return xm, rows


def check_push_off(xm, rows, delta):
    got = _push_off(xm, rows, delta)
    want = np.array([push_off_reference(xm, row, delta) for row in rows])
    assert got.tobytes() == want.tobytes()
    assert np.all(pairwise_min_distance(xm, got) > delta)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@given(m=st.integers(1, 12), k=st.integers(1, 12), delta=st.floats(0.05, 5.0),
       budget=st.sampled_from([None, 1, 25, 70]), seed=st.integers(0, 2**32 - 1))
def test_push_off_matches_one_row_reference(n, m, k, delta, budget, seed):
    xm, rows = push_off_rows(np.random.default_rng(seed), m, n, k, delta)
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:  # chunks of one or a few rows
            mp.setattr(numlin, "SCRATCH_ELEMENTS", budget)
        check_push_off(xm, rows, delta)


@pytest.mark.parametrize("chunk_rows", [None, 1, 3])
def test_push_off_matches_one_row_reference_on_wide_rows(monkeypatch, chunk_rows):
    xm, rows = push_off_rows(np.random.default_rng(784), 40, 784, 9, 4.0)
    if chunk_rows is not None:
        monkeypatch.setattr(numlin, "SCRATCH_ELEMENTS", chunk_rows * xm.size)
    check_push_off(xm, rows, 4.0)


def test_push_off_scratch_stays_within_one_row_plus_budget():
    # the rows are pushed one chunk at a time, so the scratch memory of a
    # batch stays within that of one row plus the chunk budget
    import tracemalloc

    xm, rows = push_off_rows(np.random.default_rng(3), 2000, 784, 6, 8.0)
    assert np.sum(pairwise_min_distance(xm, rows) <= 8.0) == 4  # four one-row chunks

    def scratch(push):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            push()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    one_row = scratch(lambda: push_off_reference(xm, rows[1], 8.0))
    batch = scratch(lambda: _push_off(xm, rows, 8.0))
    assert one_row > 2 * xm.nbytes  # the reference walked its ray
    assert batch <= one_row + 8 * numlin.SCRATCH_ELEMENTS


def test_pgd_rejects_delta_whose_square_overflows():
    # unchecked, the overflowing square makes the push-off's ray walk
    # endless; steps=0 keeps a regression from hanging
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=20, seed=18))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=5)
    with pytest.raises(InputDomainError, match="finite square"):
        pgd_adversary(model, ds.x, delta=1e200, steps=0)


def test_pgd_on_converged_linear_ae_matches_analytic_quality(converged_linear_ae):
    trained, x = converged_linear_ae
    res = pgd_adversary(trained, x, delta=5.0, steps=500, step_size=0.1, restarts=5, seed=3)
    assert not res.search_failed
    assert res.loss < 1e-6
    assert res.min_dist_to_train > 5.0
    # soundness: reported loss equals a fresh forward evaluation
    assert res.loss == pytest.approx(float(sample_scores(trained, res.a[None, :])[0]), rel=0)


def test_pgd_zero_steps_returns_best_raw_start():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=30, seed=18))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=5)
    res = pgd_adversary(model, ds.x, delta=1.0, steps=0, restarts=7, seed=11)
    # reproduce the starts by hand and check the reported point is the best
    # of those farther than delta from every training row
    from aeaudit.rng import derive_seed

    lo, hi = ds.x.min(axis=0), ds.x.max(axis=0)
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    best_loss = None
    for r in range(7):
        rng = Rng(derive_seed(11, r))
        a0 = np.array([rng.uniform(c - 2 * h, c + 2 * h) for c, h in zip(center, half)])
        if pairwise_min_distance(ds.x, a0) <= 1.0:
            continue
        loss = float(sample_scores(model, a0[None, :])[0])
        if best_loss is None or loss < best_loss:
            best_loss, best_a = loss, a0
    assert best_loss is not None and not res.search_failed
    assert np.array_equal(res.a, best_a)
    assert res.loss == pytest.approx(best_loss, rel=0)


@pytest.fixture(scope="module")
def floor_models():
    """Model and training rows of each distance-floor case: a sparse one, and
    the setting where PGD used to return points inside delta
    (`gen-data --family gaussian --seed 42`, then a 200-epoch [2,5,1,5,2]
    ReLU model at lr 1e-2, seed 0)."""
    sparse = generate(SyntheticSpec(family="gaussian", samples_per_component=40, seed=19))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=6)
    sparse_model, _ = train(
        model, sparse, TrainConfig(epochs=300, batch_size=40, learning_rate=1e-2, seed=1)
    )
    repro = generate(SyntheticSpec(family="gaussian", samples_per_component=100, seed=42))
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=0)
    repro_model, _ = train(
        model, repro, TrainConfig(epochs=200, batch_size=32, learning_rate=1e-2, seed=0)
    )
    return {"sparse": (sparse_model, sparse.x), "repro": (repro_model, repro.x)}


@pytest.mark.parametrize(
    "case, delta, pgd_args",
    [pytest.param("sparse", 3.0, dict(steps=200, step_size=0.05, restarts=4, seed=7), id="sparse")]
    + [
        pytest.param("repro", d, dict(steps=100, restarts=2, seed=s), id=f"repro-{d:g}-{s}")
        for d in (0.5, 1.0, 2.0, 3.0)
        for s in (0, 1, 2)
    ],
)
def test_pgd_respects_distance_floor(floor_models, case, delta, pgd_args):
    trained, x = floor_models[case]
    res = pgd_adversary(trained, x, delta=delta, **pgd_args)
    if case == "sparse":
        assert not res.search_failed
    assert res.search_failed or res.min_dist_to_train > delta
    assert res.min_dist_to_train == pairwise_min_distance(x, res.a)


def test_pgd_deterministic():
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=20, seed=20))
    model = build_mlp_autoencoder([2, 4, 1, 4, 2], activation="relu", seed=8)
    r1 = pgd_adversary(model, ds.x, delta=2.0, steps=50, step_size=0.05, restarts=3, seed=9)
    r2 = pgd_adversary(model, ds.x, delta=2.0, steps=50, step_size=0.05, restarts=3, seed=9)
    assert r1.a.tobytes() == r2.a.tobytes()
    assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())


def test_pgd_figure1_regime_with_grid_scan_oracle():
    # 2D ReLU AEs in the single-Gaussian regime: across 10 seeds, PGD must
    # find an undetected point (ratio < 1) at least once, and whenever it
    # claims success a grid scan over the same area must confirm a cell
    # whose loss is at or below the training minimum.
    spec = SyntheticSpec(
        family="gaussian",
        samples_per_component=100,
        seed=42,
        means=((0.0, 0.0),),
        covariances=(((9.0, 0.0), (0.0, 9.0)),),
    )
    ds = generate(spec)
    from aeaudit.audit import scan_input_space

    successes = 0
    for seed in range(10):
        model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=seed)
        trained, _ = train(
            model, ds, TrainConfig(epochs=1000, batch_size=32, learning_rate=1e-2, seed=seed)
        )
        table = score(trained, ds)
        res = pgd_adversary(trained, ds.x, delta=1.0, steps=300, step_size=0.1,
                            restarts=10, seed=seed)
        verdict = is_undetected(res.a, trained, table)
        if verdict.ratio < 1.0 and res.min_dist_to_train > 1.0:
            successes += 1
            grid = scan_input_space(trained, ds.x, resolution=(120, 120))
            assert float(grid.losses.min()) <= table.min_score
    assert successes >= 1


def test_pgd_runs_on_conv_models():
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(2, 3), latent_dim=2, seed=12)
    x_train = Rng(31).uniforms(0.0, 1.0, (15, 64))
    res = pgd_adversary(model, x_train, delta=0.5, steps=20, step_size=0.05, restarts=2, seed=5)
    assert not res.search_failed
    assert res.a.shape == (64,)
    assert res.loss == pytest.approx(float(sample_scores(model, res.a[None, :])[0]), rel=0)
    assert res.min_dist_to_train >= 0.5


def test_pgd_all_restarts_diverge_returns_search_failed():
    # astronomically scaled weights overflow the forward pass immediately
    from aeaudit.layers import DenseLayer
    from aeaudit.models import AutoencoderModel

    big = 1e200
    model = AutoencoderModel(
        encoder=[DenseLayer(np.full((2, 1), big), np.zeros(1), "linear")],
        decoder=[DenseLayer(np.full((1, 2), big), np.zeros(2), "linear")],
        input_shape=(2,),
        latent_dim=1,
    )
    x = Rng(30).normals((10, 2))
    res = pgd_adversary(model, x, delta=1.0, steps=5, restarts=3, seed=0)
    assert res.search_failed
    assert res.diagnostics["statuses"] == ["diverged", "diverged", "diverged"]
    assert res.method == "pgd"


def test_adversary_result_json_round_trip():
    res = AdversaryResult(
        a=np.array([1.0, 2.0]),
        loss=0.5,
        min_dist_to_train=3.0,
        delta_requested=1.0,
        method="pgd",
        latent_point=np.array([0.1]),
    )
    d = res.to_json_dict()
    text = json.dumps(d, sort_keys=True)
    back = json.loads(text)
    assert back["a"] == [1.0, 2.0]
    assert back["method"] == "pgd"
    assert back["loss"] == 0.5


def test_write_pgm(tmp_path):
    a = np.linspace(0.0, 1.0, 12)
    p = tmp_path / "img.pgm"
    write_pgm(a, (3, 4), p)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert len(raw) == len(b"P5\n4 3\n255\n") + 12
    assert raw[-1] == 255 and raw[len(b"P5\n4 3\n255\n")] == 0
    with pytest.raises(InputDomainError):
        write_pgm(a, (5, 4), tmp_path / "bad.pgm")
