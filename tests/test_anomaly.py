"""Tests for anomaly scoring and the failure criterion."""

import hashlib

import numpy as np
import pytest

from aeaudit.anomaly import (
    is_undetected,
    sample_scores,
    score,
    table_summary,
    write_score_csv,
)
from aeaudit.datagen import Dataset, SyntheticSpec, generate
from aeaudit.errors import InputDomainError
from aeaudit.models import build_mlp_autoencoder, decode_batch, forward_batch, pca_fit
from aeaudit.rng import Rng


def test_full_rank_pca_scores_training_data_zero():
    rng = Rng(1)
    x = rng.normals((20, 4))
    model = pca_fit(x, d=4)
    table = score(model, Dataset(x=x))
    assert table.max_score < 1e-10


def test_in_plane_point_scores_zero_regardless_of_norm():
    rng = Rng(2)
    x = rng.normals((30, 5))
    model = pca_fit(x, d=2)
    for c in ([1.0, -1.0], [1e3, 2e3], [-5e4, 1e4]):
        a = decode_batch(model, np.array(c))
        assert sample_scores(model, a[None, :])[0] < 1e-10


def test_scores_match_per_row_loss_oracle():
    rng = Rng(3)
    x = rng.normals((15, 3))
    model = pca_fit(x, d=1)
    table = score(model, Dataset(x=x))
    by_index = dict(zip(table.order.tolist(), table.scores.tolist()))
    for i, row in enumerate(x):
        d = row - forward_batch(model, row)[1]
        expect = d @ d / d.shape[0]
        assert by_index[i] == pytest.approx(expect, rel=1e-12)


def test_table_sorted_descending_with_labels():
    ds = generate(SyntheticSpec(family="double_gaussian", samples_per_component=10, seed=4))
    model = pca_fit(ds.x, d=1)
    table = score(model, ds)
    scores = table.scores.tolist()
    assert scores == sorted(scores, reverse=True)
    assert all(label in (0, 1) for label in table.labels.tolist())
    assert table.min_score == scores[-1]
    assert table.max_score == scores[0]


def test_scores_nonnegative_and_zero_only_on_exact_reconstruction():
    rng = Rng(5)
    x = rng.normals((25, 4))
    model = pca_fit(x, d=2)
    s = sample_scores(model, x)
    assert np.all(s >= 0.0)
    assert np.all(s > 0.0)  # generic position: no row sits in the subspace
    a = decode_batch(model, np.array([0.5, 0.5]))
    assert sample_scores(model, a[None, :])[0] < 1e-25


def test_sum_convention_is_n_times_mean():
    rng = Rng(6)
    x = rng.normals((10, 5))
    model = pca_fit(x, d=2)
    mean_s = sample_scores(model, x, "mean")
    sum_s = sample_scores(model, x, "sum")
    assert np.allclose(sum_s, 5.0 * mean_s, rtol=1e-12)
    with pytest.raises(InputDomainError):
        sample_scores(model, x, "median")


def test_scale_equivariance_of_pca_scores():
    rng = Rng(7)
    x = rng.normals((40, 4)) + 2.0
    t = 3.7
    model1 = pca_fit(x, d=2)
    model2 = pca_fit(t * x, d=2)
    v = rng.normals((4,))
    s1 = sample_scores(model1, v[None, :])[0]
    s2 = sample_scores(model2, (t * v)[None, :])[0]
    assert s2 == pytest.approx(t * t * s1, rel=1e-8)


def test_is_undetected_pca_adversary_and_margin():
    rng = Rng(8)
    x = rng.normals((50, 5))
    model = pca_fit(x, d=2)
    train_table = score(model, Dataset(x=x))
    assert train_table.min_score > 0.0
    a = decode_batch(model, np.array([30.0, -40.0]))
    verdict = is_undetected(a, model, train_table)
    assert verdict.undetected
    assert verdict.margin > 0.0
    assert verdict.ratio < 1.0
    assert verdict.min_normal_score == train_table.min_score


def test_is_undetected_false_for_max_scoring_sample():
    rng = Rng(9)
    x = rng.normals((30, 4))
    model = pca_fit(x, d=2)
    table = score(model, Dataset(x=x))
    verdict = is_undetected(x[table.order[0]], model, table)
    assert not verdict.undetected
    assert verdict.margin < 0.0


def test_is_undetected_tie_counts_as_undetected():
    rng = Rng(10)
    x = rng.normals((20, 3))
    model = pca_fit(x, d=1)
    table = score(model, Dataset(x=x))
    verdict = is_undetected(x[table.order[-1]], model, table)
    assert verdict.undetected  # score equals the minimum
    assert verdict.margin == pytest.approx(0.0, abs=1e-15)


def test_verdict_monotonicity():
    # a strictly lower score can never flip undetected from True to False
    rng = Rng(11)
    x = rng.normals((30, 5))
    model = pca_fit(x, d=2)
    table = score(model, Dataset(x=x))
    a_quiet = decode_batch(model, np.array([100.0, 100.0]))  # near-zero score
    a_loud = x[0] + 5.0  # visible residual
    v_quiet = is_undetected(a_quiet, model, table)
    v_loud = is_undetected(a_loud, model, table)
    assert v_quiet.score <= v_loud.score
    if v_loud.undetected:
        assert v_quiet.undetected


def test_works_for_autoencoder_models_too():
    model = build_mlp_autoencoder([2, 4, 1, 4, 2], seed=1)
    ds = generate(SyntheticSpec(family="gaussian", samples_per_component=20, seed=13))
    table = score(model, ds)
    assert len(table.order) == 20
    assert table.min_score >= 0.0


def test_score_csv_export(tmp_path):
    ds = generate(SyntheticSpec(family="double_gaussian", samples_per_component=5, seed=14))
    model = pca_fit(ds.x, d=1)
    table = score(model, ds)
    p = tmp_path / "scores.csv"
    write_score_csv(table, p)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "index,score,label"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert float(first[1]) == table.scores[0]
    summary = table_summary(table)
    assert summary["count"] == 10
    assert summary["convention"] == "mean"


# sha256 of the labelled score CSV below, recorded before the score table
# held arrays instead of one object a row; no CLI path writes labels
PINNED_LABELLED_SCORE_SHA256 = "1192b5d6439f8c446f3121d7e98a4afb267fb0395ef452f8e84b585addf8fa1c"


def test_labelled_score_csv_pinned(tmp_path):
    ds = generate(SyntheticSpec(family="double_gaussian", samples_per_component=50, seed=3))
    p = tmp_path / "scores.csv"
    write_score_csv(score(pca_fit(ds.x, d=1), ds), p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == PINNED_LABELLED_SCORE_SHA256
