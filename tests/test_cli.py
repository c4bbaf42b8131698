"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeaudit.cli import main
from aeaudit.datagen import Dataset, load_csv, load_mnist, save_csv, save_idx
from aeaudit.layers import DenseLayer
from aeaudit.models import (
    AutoencoderModel,
    build_conv_autoencoder,
    build_mlp_autoencoder,
    load_model,
    pca_fit,
    save_model,
)
from aeaudit.rng import Rng


def run(*argv):
    return main([str(a) for a in argv])


def read_bytes_map(paths):
    return {p.name: p.read_bytes() for p in paths}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# --- gen-data ---------------------------------------------------------------


def test_gen_data_gaussian_with_sidecar(tmp_path):
    out = tmp_path / "d.csv"
    assert run("gen-data", "--family", "gaussian", "--n", 100, "--seed", 7, "-o", out) == 0
    ds = load_csv(out)
    assert ds.x.shape == (100, 2)
    sidecar = tmp_path / "d.spec.json"
    spec = json.loads(sidecar.read_text())
    assert spec["family"] == "gaussian"
    assert spec["seed"] == 7
    assert spec["samples_per_component"] == 100


def test_gen_data_deterministic_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run("gen-data", "--family", "double_gaussian", "--n", 40, "--seed", 3, "-o", out) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.spec.json").read_bytes() == (tmp_path / "b.spec.json").read_bytes()


def test_gen_data_banana_noiseless(tmp_path):
    out = tmp_path / "banana.csv"
    assert run("gen-data", "--family", "banana", "--noise", 0, "--n", 50, "-o", out) == 0
    ds = load_csv(out)
    assert np.all(ds.x[:, 1] == ds.x[:, 0] ** 2)


def test_gen_data_invalid_covariance_exit_2(tmp_path):
    code = run(
        "gen-data", "--family", "gaussian", "--n", 10,
        "--mean", "0,0", "--cov", "1,2,2,1", "-o", tmp_path / "x.csv",
    )
    assert code == 2


def test_gen_data_mean_longer_than_covariance_exit_2(tmp_path, capsys):
    code = run(
        "gen-data", "--family", "gaussian", "--mean", "0,0,0", "--cov", "1,0,0,1",
        "-o", tmp_path / "x.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "mean 0 has length 3, expected 2" in err
    assert "internal error" not in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["audit", "--model", "m.json", "--data", "d.csv", "--bounds", "1,2,3"], "--bounds"),
        (["audit", "--model", "m.json", "--data", "d.csv", "--resolution", "5"], "--resolution"),
        (["gen-data", "--family", "gaussian", "--cov", "1,0,0"], "--cov"),
        (["gen-data", "--family", "banana", "--x-range", "1"], "--x-range"),
    ],
)
def test_wrong_number_count_is_a_usage_error_naming_the_flag(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "-o", tmp_path / "out")
    assert exc.value.code == 2
    assert f"argument {flag}: expected" in capsys.readouterr().err


def test_gen_data_bad_flag_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("gen-data", "--family", "nope", "-o", tmp_path / "x.csv")
    assert exc.value.code == 2


# --- train ---------------------------------------------------------------------


@pytest.fixture()
def gaussian_csv(tmp_path):
    out = tmp_path / "train.csv"
    assert run("gen-data", "--family", "gaussian", "--n", 60, "--seed", 5, "-o", out) == 0
    return out


def test_train_mlp_writes_model_and_report(tmp_path, gaussian_csv):
    model_path = tmp_path / "model.json"
    report_path = tmp_path / "report.json"
    code = run(
        "train", "--data", gaussian_csv, "--arch", "2,5,1,5,2", "--act", "relu",
        "--epochs", 30, "--seed", 1, "-o", model_path, "--report", report_path,
    )
    assert code == 0
    model = load_model(model_path)
    assert model.latent_dim == 1
    report = json.loads(report_path.read_text())
    assert len(report["epoch_losses"]) == 30
    assert "wall_time_s" not in report  # artifact files stay byte-reproducible


def test_train_deterministic_artifacts(tmp_path, gaussian_csv):
    paths = []
    for tag in ("one", "two"):
        model_path = tmp_path / f"{tag}.json"
        report_path = tmp_path / f"{tag}.report.json"
        code = run(
            "train", "--data", gaussian_csv, "--arch", "2,4,1,4,2",
            "--epochs", 15, "--seed", 9, "-o", model_path, "--report", report_path,
        )
        assert code == 0
        paths.append((model_path, report_path))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_train_missing_data_exit_2(tmp_path):
    code = run(
        "train", "--data", tmp_path / "missing.csv", "--arch", "2,1,2",
        "--epochs", 1, "-o", tmp_path / "m.json",
    )
    assert code == 2


def test_train_arch_and_preset_mutually_exclusive(tmp_path, gaussian_csv):
    code = run(
        "train", "--data", gaussian_csv, "--epochs", 1, "-o", tmp_path / "m.json",
    )
    assert code == 2


def test_train_zero_epochs_report_is_strict_json(tmp_path, gaussian_csv):
    report = tmp_path / "report.json"
    code = run(
        "train", "--data", gaussian_csv, "--arch", "2,3,1,3,2", "--epochs", 0,
        "-o", tmp_path / "m.json", "--report", report,
    )
    assert code == 0
    doc = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert doc["epoch_losses"] == [] and doc["final_loss"] is None


def test_train_config_file_overrides_flags(tmp_path, gaussian_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": 7, "learning_rate": 0.005}')
    model_path = tmp_path / "m.json"
    report_path = tmp_path / "r.json"
    code = run(
        "train", "--data", gaussian_csv, "--arch", "2,1,2", "--epochs", 99,
        "--config", cfg, "-o", model_path, "--report", report_path,
    )
    assert code == 0
    assert len(json.loads(report_path.read_text())["epoch_losses"]) == 7


def test_train_config_wrong_field_type_exit_2(tmp_path, gaussian_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"epochs": "ten"}')
    code = run(
        "train", "--data", gaussian_csv, "--arch", "2,1,2",
        "--config", cfg, "-o", tmp_path / "m.json",
    )
    assert code == 2


def test_train_config_beta1_of_one_exit_2_naming_beta1(tmp_path, gaussian_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"beta1": 1.0}')
    code = run(
        "train", "--data", gaussian_csv, "--arch", "2,1,2", "--epochs", 2,
        "--config", cfg, "-o", tmp_path / "m.json",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "beta1" in err and "non-finite" not in err
    assert not (tmp_path / "m.json").exists()


def test_train_conv_preset_on_idx_files(tmp_path):
    rng = Rng(11)
    images = (rng.uniforms(0.0, 1.0, (40, 8, 8)) * 255).astype(np.uint8)
    labels = np.array([i % 4 for i in range(40)], dtype=np.uint8)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_idx(images, labels, img, lab)
    model_path = tmp_path / "conv.json"
    code = run(
        "train", "--preset", "mnist-conv2", "--mnist-images", img, "--mnist-labels", lab,
        "--digits", "0,1", "--epochs", 2, "--seed", 0, "-o", model_path,
    )
    assert code == 0
    model = load_model(model_path)
    assert model.latent_dim == 2
    assert model.input_shape == (1, 8, 8)


@pytest.mark.parametrize("latent_dim", [-1, 0])
def test_train_conv_preset_rejects_latent_dim_below_1(tmp_path, capsys, latent_dim):
    images = (Rng(12).uniforms(0.0, 1.0, (4, 4, 4)) * 255).astype(np.uint8)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_idx(images, np.zeros(4, dtype=np.uint8), img, lab)
    code = run(
        "train", "--preset", "mnist-conv2", "--mnist-images", img, "--mnist-labels", lab,
        "--latent-dim", latent_dim, "--epochs", 1, "-o", tmp_path / "conv.json",
    )
    assert code == 2
    assert f"latent_dim must be >= 1, got {latent_dim}" in capsys.readouterr().err
    assert not (tmp_path / "conv.json").exists()


def _idx_pair(tmp_path, shape):
    images = (Rng(15).uniforms(0.0, 1.0, shape) * 255).astype(np.uint8)
    img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
    save_idx(images, np.zeros(shape[0], dtype=np.uint8), img, lab)
    return img, lab


def test_conv_preset_and_pgm_take_image_geometry_from_idx_header(tmp_path):
    # 4x16 images have a square pixel count; they must not train as 8x8
    img, lab = _idx_pair(tmp_path, (6, 4, 16))
    model_path, pixels, pgm = tmp_path / "conv.json", tmp_path / "pixels.csv", tmp_path / "a.pgm"
    assert run("train", "--preset", "mnist-conv2", "--mnist-images", img, "--mnist-labels", lab,
               "--epochs", 1, "-o", model_path) == 0
    assert load_model(model_path).input_shape == (1, 4, 16)
    save_csv(load_mnist(img, lab), pixels)
    assert run("attack", "--model", model_path, "--data", pixels, "--method", "latent",
               "--z", "0.1,0.2", "-o", tmp_path / "a.json", "--pgm", pgm) == 0
    assert pgm.read_bytes().startswith(b"P5\n16 4\n255\n")


@pytest.mark.parametrize("hw", [(2, 8), (6, 8)])
def test_conv_preset_rejects_sides_not_multiples_of_4(tmp_path, capsys, hw):
    img, lab = _idx_pair(tmp_path, (6, *hw))
    code = run("train", "--preset", "mnist-conv2", "--mnist-images", img, "--mnist-labels", lab,
               "--epochs", 1, "-o", tmp_path / "conv.json")
    assert code == 2
    assert "image sides must be positive multiples of 4" in capsys.readouterr().err
    assert not (tmp_path / "conv.json").exists()


@pytest.mark.parametrize("flags", [("--checkpoint-every", -5, "--checkpoint-dir", "ck"),
                                   ("--checkpoint-every", 5)])
def test_train_rejects_checkpoint_settings_that_would_misfire(tmp_path, gaussian_csv, capsys,
                                                             flags):
    # a negative interval wrote checkpoints (Python's % takes a negative
    # divisor) and an interval without a directory silently wrote none
    flags = [tmp_path / f if f == "ck" else f for f in flags]
    code = run("train", "--data", gaussian_csv, "--arch", "2,1,2", "--epochs", 10, *flags,
               "-o", tmp_path / "m.json")
    assert code == 2
    assert "checkpoint_interval" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "ck").exists()


def test_train_checkpoint_dir_without_interval_is_not_created(tmp_path, gaussian_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checkpoint_dir": str(tmp_path / "ckx"), "epochs": 1}))
    code = run("train", "--data", gaussian_csv, "--arch", "2,1,2", "--config", cfg,
               "-o", tmp_path / "m.json")
    assert code == 0
    assert (tmp_path / "m.json").exists() and not (tmp_path / "ckx").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train", "--data", "data.csv", "--arch", "2,5,1,5,2", "--latent-dim", 7], "--latent-dim"),
        (["train", "--data", "data.csv", "--arch", "2,5,1,5,2", "--digits", 3], "--digits"),
        (["train", "--data", "data.csv", "--arch", "2,1,2", "--max-per-digit", 2],
         "--max-per-digit"),
        (["train", "--data", "data.csv", "--arch", "2,1,2", "--mnist-images", "img.idx"],
         "--mnist-images"),
        (["train", "--data", "data.csv", "--arch", "2,1,2", "--mnist-labels", "lab.idx"],
         "--mnist-labels"),
        (["train", "--preset", "mnist-conv2", "--data", "data.csv"], "--data"),
        (["train", "--preset", "mnist-conv2", "--has-header"], "--has-header"),
        (["train", "--preset", "mnist-conv2", "--act", "sigmoid"], "--act"),
        (["train", "--preset", "mnist-conv2", "--standardize"], "--standardize"),
        (["gen-data", "--family", "banana", "--mean", "5,5"], "--mean"),
        (["gen-data", "--family", "banana", "--cov", "1,0,0,1"], "--cov"),
        (["gen-data", "--family", "banana", "--alpha-range", "0,1"], "--alpha-range"),
        (["gen-data", "--family", "gaussian", "--noise", 0.5], "--noise"),
        (["gen-data", "--family", "diagonal", "--x-range", "0,1"], "--x-range"),
    ],
)
def test_flag_the_mode_ignores_exit_2_naming_it(tmp_path, gaussian_csv, capsys, argv, flag):
    img, lab = _idx_pair(tmp_path, (6, 4, 4))
    files = {"data.csv": gaussian_csv, "img.idx": img, "lab.idx": lab}
    if "--preset" in argv:
        argv = [*argv, "--mnist-images", img, "--mnist-labels", lab]
    if argv[0] == "train":
        argv = [*argv, "--epochs", 1]
    code = run(*[files.get(a, a) for a in argv], "-o", tmp_path / "out.csv")
    assert code == 2
    assert f"error: {flag} does not apply to" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["attack", "--method", "pgd", "--steps", 1, "--restarts", 1, "--pgm", "adv.pgm"],
                     "--pgm", id="attack-pgm-on-2-features"),
        pytest.param(["score", "--baseline", "bad.csv"], "bad.csv", id="score-malformed-baseline"),
        pytest.param(["attack", "--method", "latent", "--z=0.5", "--delta", 5], "--delta",
                     id="latent-delta"),
        pytest.param(["attack", "--method", "latent", "--z=0.5", "--steps", 3], "--steps",
                     id="latent-steps"),
        pytest.param(["attack", "--method", "latent", "--z=0.5", "--step-size", 0.1],
                     "--step-size", id="latent-step-size"),
        pytest.param(["attack", "--method", "latent", "--z=0.5", "--restarts", 9], "--restarts",
                     id="latent-restarts"),
        pytest.param(["attack", "--method", "latent", "--z=0.5", "--seed", 4], "--seed",
                     id="latent-seed"),
        pytest.param(["attack", "--method", "pgd", "--z=0.5"], "--z", id="pgd-z"),
        pytest.param(["attack", "--method", "analytic", "--z=0.5"], "--z", id="analytic-z"),
        pytest.param(["attack", "--method", "analytic", "--restarts", 2], "--restarts",
                     id="analytic-restarts"),
        pytest.param(["attack", "--method", "analytic", "--seed", 4], "--seed", id="analytic-seed"),
    ],
)
def test_input_refused_before_any_output_is_written(tmp_path, gaussian_csv, capsys, argv, named):
    model = tmp_path / "mlp.json"
    save_model(build_mlp_autoencoder([2, 5, 1, 5, 2], seed=2), model)
    (tmp_path / "bad.csv").write_text("index,score,label\n0,abc,\n")
    files = {"bad.csv": tmp_path / "bad.csv", "adv.pgm": tmp_path / "adv.pgm"}
    out = tmp_path / "out.json"
    code = run(argv[0], "--model", model, "--data", gaussian_csv,
               *[files.get(a, a) for a in argv[1:]], "-o", out)
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "adv.pgm").exists()


# --- score ------------------------------------------------------------------------


@pytest.fixture()
def pca_model_file(tmp_path, gaussian_csv):
    ds = load_csv(gaussian_csv)
    model = pca_fit(ds.x, d=1)
    path = tmp_path / "pca.json"
    save_model(model, path)
    return path


def test_score_training_data_summary_matches_csv(tmp_path, gaussian_csv, pca_model_file, capsys):
    out = tmp_path / "scores.csv"
    code = run("score", "--model", pca_model_file, "--data", gaussian_csv, "-o", out)
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    lines = out.read_text().strip().split("\n")[1:]
    scores = [float(l.split(",")[1]) for l in lines]
    assert summary["min_score"] == pytest.approx(min(scores), rel=0)
    assert summary["max_score"] == pytest.approx(max(scores), rel=0)


def test_score_flags_adversary_against_baseline(tmp_path, gaussian_csv, pca_model_file, capsys):
    baseline = tmp_path / "baseline.csv"
    assert run("score", "--model", pca_model_file, "--data", gaussian_csv, "-o", baseline) == 0
    capsys.readouterr()

    # craft an adversary row by decoding a far latent point
    from aeaudit.models import decode_batch

    model = load_model(pca_model_file)
    a = decode_batch(model, np.array([50.0]))
    adv_csv = tmp_path / "adv.csv"
    adv_csv.write_text(",".join(repr(float(v)) for v in a) + "\n")

    out = tmp_path / "adv_scores.csv"
    code = run(
        "score", "--model", pca_model_file, "--data", adv_csv,
        "--baseline", baseline, "-o", out,
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["flagged"] == 1
    assert summary["flagged_indices"] == [0]


# sha256 of the score CSV of pca_model_file on its own training data,
# recorded before the score table held arrays instead of one object a row
PINNED_SCORE_SHA256 = {
    "mean": "c8dbfbfef371caffb22d378dc675dc1f615880f67f759c2f7e81db766266a247",
    "sum": "2b2fbffb84d6702b9ba78a16b404b5cae1553a7faddb453179b8c5cdebb37f7c",
}
SUMMARY_KEYS = {"convention", "count", "max_score", "min_score"}


@pytest.mark.parametrize("convention", PINNED_SCORE_SHA256)
def test_score_csv_pinned(tmp_path, gaussian_csv, pca_model_file, capsys, convention):
    out = tmp_path / "scores.csv"
    argv = ["score", "--model", pca_model_file, "--data", gaussian_csv,
            "--convention", convention]
    assert run(*argv, "-o", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_SCORE_SHA256[convention]
    assert set(json.loads(capsys.readouterr().out)) == SUMMARY_KEYS

    # against itself as baseline, only the last (lowest-scoring) row is flagged
    assert run(*argv, "--baseline", out, "-o", tmp_path / "again.csv") == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == SUMMARY_KEYS | {"baseline_min_score", "flagged", "flagged_indices"}
    last = out.read_text().splitlines()[-1].split(",")
    assert summary["flagged_indices"] == [int(last[0])]
    assert summary["baseline_min_score"] == summary["min_score"] == float(last[1])


@pytest.mark.parametrize("header, found", [("index,label", 0), ("score,score", 2)])
def test_score_baseline_needs_one_score_column_exit_2(tmp_path, gaussian_csv, pca_model_file,
                                                      capsys, header, found):
    baseline = tmp_path / "baseline.csv"
    baseline.write_text(f"{header}\n1,x\n")
    code = run(
        "score", "--model", pca_model_file, "--data", gaussian_csv,
        "--baseline", baseline, "-o", tmp_path / "s.csv",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{baseline}: baseline CSV needs one 'score' column, found {found}" in captured.err


@pytest.mark.parametrize("row", ["0,high", "0", "0,nan", "0,inf", "0,-inf"])
def test_score_malformed_baseline_exit_2(tmp_path, gaussian_csv, pca_model_file, capsys, row):
    baseline = tmp_path / "baseline.csv"
    baseline.write_text(f"index,score\n0,0.5\n{row}\n")
    code = run(
        "score", "--model", pca_model_file, "--data", gaussian_csv,
        "--baseline", baseline, "-o", tmp_path / "s.csv",
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{baseline}:3:" in captured.err


def _weight_as_string(doc):
    doc["encoder"][0]["weight"] = "abc"


def _ragged_weight(doc):
    doc["encoder"][0]["weight"][1] = doc["encoder"][0]["weight"][1][:-1]


def _latent_dim_as_string(doc):
    doc["latent_dim"] = "x"


# the layer-field cases below return the message they give instead of
# "malformed model document": an invariant check of the layer rejects them


def _weight_as_none(doc):
    doc["encoder"][0]["weight"] = None
    return "dense layer expects weight (in, out) and bias (out,), got () and (3,)"


def _bias_missing(doc):
    del doc["decoder"][0]["bias"]


def _as_conv_model(doc):
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(2, 3), latent_dim=2, seed=4)
    doc["input_shape"] = list(model.input_shape)
    doc["latent_dim"] = model.latent_dim
    doc["encoder"] = [layer.to_config() for layer in model.encoder]
    doc["decoder"] = [layer.to_config() for layer in model.decoder]
    return doc


def _conv_stride_as_string(doc):
    _as_conv_model(doc)["encoder"][0]["stride"] = "two"


def _conv_flatten_in_shape_as_none(doc):
    encoder = _as_conv_model(doc)["encoder"]
    assert encoder[2]["kind"] == "flatten"
    encoder[2]["in_shape"] = None


def _encoder_layer_as_list(doc):
    doc["encoder"][0] = [1, 2]


def _decoder_layer_as_null(doc):
    doc["decoder"][1] = None


def _conv_stride_zero(doc):
    _as_conv_model(doc)["encoder"][0]["stride"] = 0
    return "conv stride must be >= 1, got 0"


def _upconv_stride_negative(doc):
    _as_conv_model(doc)["decoder"][2]["stride"] = -2
    return "upconv stride must be >= 1, got -2"


def _conv_padding_negative(doc):
    _as_conv_model(doc)["encoder"][0]["padding"] = -1
    return "conv padding must be >= 0, got -1"


# integer fields take no float, however near an integer, and no JSON true
# (the model's latent_dim is 1): int() used to truncate both


def _latent_dim_float(doc):
    doc["latent_dim"] = 1.5
    return "latent_dim must be an integer, got 1.5"


def _latent_dim_true(doc):
    doc["latent_dim"] = True
    return "latent_dim must be an integer, got True"


def _seed_float(doc):
    doc["seed"] = 1.7
    return "seed must be an integer, got 1.7"


def _input_shape_float(doc):
    doc["input_shape"] = [2.9]
    return "input_shape must be an integer, got 2.9"


def _conv_stride_float(doc):
    _as_conv_model(doc)["encoder"][0]["stride"] = 2.5
    return "conv stride must be an integer, got 2.5"


def _reshape_out_shape_float(doc):
    decoder = _as_conv_model(doc)["decoder"]
    assert decoder[1]["kind"] == "reshape"
    decoder[1]["out_shape"][0] = 3.0
    return "reshape out_shape must be an integer, got 3.0"


# a JSON integer too large for a float (int() -> float() overflows)


def _weight_huge_int(doc):
    doc["encoder"][0]["weight"][0][0] = 10**400


def _preprocessing_mean_huge_int(doc):
    doc["preprocessing"] = {"mean": [10**400, 0.0], "std": [1.0, 1.0]}


def _conv_bias_huge_int(doc):
    _as_conv_model(doc)["decoder"][3]["bias"][0] = 10**400


def _preprocessing_std_empty(doc):
    doc["preprocessing"] = {"mean": [0.0, 0.0], "std": []}
    return "preprocessing std has length 0, expected 2"


def _preprocessing_std_zero(doc):
    doc["preprocessing"] = {"mean": [0.0, 0.0], "std": [1.0, 0.0]}
    return "preprocessing std must be > 0"


@pytest.mark.parametrize(
    "corrupt",
    [
        _weight_as_string,
        _ragged_weight,
        _latent_dim_as_string,
        _weight_as_none,
        _bias_missing,
        _conv_stride_as_string,
        _conv_flatten_in_shape_as_none,
        _encoder_layer_as_list,
        _decoder_layer_as_null,
        _conv_stride_zero,
        _upconv_stride_negative,
        _conv_padding_negative,
        _latent_dim_float,
        _latent_dim_true,
        _seed_float,
        _input_shape_float,
        _conv_stride_float,
        _reshape_out_shape_float,
        _weight_huge_int,
        _preprocessing_mean_huge_int,
        _conv_bias_huge_int,
        _preprocessing_std_empty,
        _preprocessing_std_zero,
    ],
)
def test_score_malformed_model_document_exit_2(tmp_path, gaussian_csv, capsys, corrupt):
    path = tmp_path / "model.json"
    save_model(build_mlp_autoencoder([2, 3, 1, 3, 2], seed=4), path)
    doc = json.loads(path.read_text())
    message = corrupt(doc)
    path.write_text(json.dumps(doc))
    code = run("score", "--model", path, "--data", gaussian_csv, "-o", tmp_path / "s.csv")
    assert code == 2
    err = capsys.readouterr().err
    assert (message or f"{path}: malformed model document") in err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "part, index, in_shape",
    [("encoder", 0, [1]), ("encoder", 0, []), ("encoder", 0, [1, 2]), ("decoder", 2, [])],
)
def test_score_conv_in_shape_not_three_entries_exit_2(tmp_path, capsys, part, index, in_shape):
    path = tmp_path / "conv.json"
    save_model(build_conv_autoencoder(image_hw=(8, 8), channels=(2, 3), latent_dim=2, seed=4), path)
    doc = json.loads(path.read_text())
    assert doc[part][index]["kind"] in ("conv2d", "upconv2d")
    doc[part][index]["in_shape"] = in_shape
    path.write_text(json.dumps(doc))
    data = tmp_path / "pixels.csv"
    save_csv(Dataset(x=Rng(3).uniforms(0.0, 1.0, (5, 64))), data)
    code = run("score", "--model", path, "--data", data, "-o", tmp_path / "s.csv")
    assert code == 2
    err = capsys.readouterr().err
    assert "in_shape must be (C, H, W)" in err
    assert "internal error" not in err


def test_score_cell_over_csv_field_limit_exit_2(tmp_path, pca_model_file, capsys):
    data = tmp_path / "long-cell.csv"
    data.write_text("1,2\n3," + "4" * 140_000 + "\n")
    code = run("score", "--model", pca_model_file, "--data", data, "-o", tmp_path / "s.csv")
    assert code == 2
    err = capsys.readouterr().err
    assert f"{data}: unreadable CSV in row 2" in err
    assert "internal error" not in err


def test_score_empty_dataset_exit_2(tmp_path, pca_model_file):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = run("score", "--model", pca_model_file, "--data", empty, "-o", tmp_path / "s.csv")
    assert code == 2


@pytest.mark.parametrize(
    "case", ["data-is-a-directory", "output-under-a-file", "binary-data", "binary-model"]
)
def test_score_unreadable_path_exit_2(tmp_path, gaussian_csv, pca_model_file, capsys, case):
    binary = tmp_path / "binary"
    binary.write_bytes(bytes(range(256)))
    model, data, out = pca_model_file, gaussian_csv, tmp_path / "s.csv"
    if case == "data-is-a-directory":
        data = tmp_path
    elif case == "output-under-a-file":
        out = gaussian_csv / "out.csv"
    elif case == "binary-data":
        data = binary
    else:
        model = binary
    code = run("score", "--model", model, "--data", data, "-o", out)
    assert code == 2
    assert "internal error" not in capsys.readouterr().err


# --- audit -------------------------------------------------------------------------


def test_audit_pca_on_diagonal_toy_exits_3(tmp_path):
    data = tmp_path / "diag.csv"
    assert run("gen-data", "--family", "diagonal", "--n", 50, "--seed", 2, "-o", data) == 0
    ds = load_csv(data)
    model_path = tmp_path / "pca.json"
    save_model(pca_fit(ds.x, d=1), model_path)
    outdir = tmp_path / "audit"
    code = run(
        "audit", "--model", model_path, "--data", data,
        "--resolution", "64,64", "--epsilon", "1e-6", "-o", outdir,
    )
    assert code == 3
    report = json.loads((outdir / "report.json").read_text())
    assert report["out_of_bounds_found"] is True
    assert (outdir / "grid.csv").exists()
    assert (outdir / "heatmap.svg").exists()


@pytest.fixture(scope="module")
def pca_on_elongated_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("elongated")
    assert run("gen-data", "--family", "gaussian", "--seed", 7, "--cov", "4,0,0,0.25",
               "-o", d / "data.csv") == 0
    save_model(pca_fit(load_csv(d / "data.csv").x, d=1), d / "pca.json")
    return d


@settings(max_examples=30, deadline=None)
@given(epsilon=st.floats(1e-3, 4.0), far_threshold=st.floats(0.0, 16.0),
       side=st.integers(2, 12), x0=st.floats(-40.0, 40.0), width=st.floats(1.0, 40.0))
def test_audit_exits_3_exactly_when_report_finds(pca_on_elongated_data, epsilon, far_threshold,
                                                side, x0, width):
    # the zero-loss line runs along x through the data; windows on it that
    # hold the data or lie off it give both verdicts
    d = pca_on_elongated_data
    out = d / "audit"
    code = run("audit", "--model", d / "pca.json", "--data", d / "data.csv",
               "--epsilon", epsilon, "--far-threshold", far_threshold,
               "--resolution", f"{side},{side}", f"--bounds={x0!r},{x0 + width!r},-3,3",
               "-o", out)
    report = json.loads((out / "report.json").read_text())
    flags = [r["min_dist_to_train"] > far_threshold for r in report["regions"]]
    assert [r["out_of_bounds"] for r in report["regions"]] == flags
    assert report["out_of_bounds_found"] is any(flags)
    assert code == (3 if report["out_of_bounds_found"] else 0)


def test_audit_no_finding_exits_0(tmp_path, gaussian_csv, pca_model_file):
    outdir = tmp_path / "audit0"
    # epsilon 0 means no cell can be below it: no regions, no finding
    code = run(
        "audit", "--model", pca_model_file, "--data", gaussian_csv,
        "--resolution", "32,32", "--epsilon", "0", "-o", outdir,
    )
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["regions"] == []


def test_audit_deterministic_artifacts(tmp_path, gaussian_csv, pca_model_file):
    dirs = []
    for tag in ("x", "y"):
        outdir = tmp_path / tag
        code = run(
            "audit", "--model", pca_model_file, "--data", gaussian_csv,
            "--resolution", "24,24", "-o", outdir,
        )
        assert code in (0, 3)
        dirs.append(outdir)
    for name in ("grid.csv", "report.json", "heatmap.svg"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


# sha256 of the audit artifacts below, recorded with numpy 2.4 on OpenBLAS
# (x86-64), with the model path in report.json replaced by "model.json"
PINNED_AUDIT_SHA256 = {
    "grid.csv": "c3f8002466bb87570a036a56041572c4c38ddd6bb183b2412eddf30fc480ca87",
    "heatmap.svg": "22f5755acf79dfb43255116a0a6f228284b8ed04961ed8359edca355eb483b7a",
    "report.json": "d5fc8d8d762fa10295042d790eff7c8530fc444582e2e5d854c85c5f86a1e5c9",
}


def test_audit_artifacts_pinned(tmp_path):
    data, model, outdir = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "audit"
    assert run("gen-data", "--family", "gaussian", "--n", 100, "--seed", 42,
               "--cov", "9,0,0,9", "-o", data) == 0
    assert run("train", "--data", data, "--arch", "2,5,1,5,2", "--act", "relu", "--epochs", 50,
               "--batch-size", 32, "--lr", "1e-2", "--seed", 0, "-o", model) == 0
    code = run("audit", "--model", model, "--data", data, "--resolution", "41,41",
               "--epsilon", 2, "--seed", 0, "-o", outdir)
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    assert [r["cell_count"] for r in report["regions"]] == [7]
    artifacts = read_bytes_map(outdir / name for name in PINNED_AUDIT_SHA256)
    artifacts["report.json"] = artifacts["report.json"].replace(
        json.dumps(str(model)).encode(), b'"model.json"'
    )
    digests = {name: hashlib.sha256(b).hexdigest() for name, b in artifacts.items()}
    assert digests == PINNED_AUDIT_SHA256


# sha256 of a PCA audit whose one sub-epsilon region fills the 200x200 latent
# plane (the benchmark's pca-wide workload at seed 11: 1000 rows of 64
# features near a plane); report.json with its model path as "pca.json".
# pca.json and heatmap.svg were recorded before the region's distances were
# taken in cache-sized chunks and before write_json stopped calling json.dump.
# grid.csv and report.json were re-recorded when the scan went to 1024-node
# blocks: the 64-feature encode product then rounds on another BLAS path,
# which moved 37 028 losses by at most 2.1e-29 and the minimal-loss cell
PINNED_WIDE_PCA_SHA256 = {
    "pca.json": "214b8142a46d97d32d32e0d7ac194416380768aff30baad71b8036b3e1f9282a",
    "grid.csv": "128218e63d3209415caf3e03de0935fe495004a5b2e8938eb04350d9f87af664",
    "report.json": "64695b0575c6069a3b1f78bab7547e30ca36887b41516c9271949243c6452ffc",
    "heatmap.svg": "b3448df9bd02589bdaeb76c829fbc080e9b2c0a2b5b72180219550d5960933db",
}


def test_wide_pca_audit_artifacts_pinned(tmp_path):
    rng = np.random.default_rng(11)
    plane = np.linalg.qr(rng.normal(size=(64, 2)))[0].T
    latent = rng.normal(size=(1000, 2)) * np.array([5.0, 3.0])
    x = latent @ plane + rng.normal(size=(1000, 64)) * 0.1 + rng.normal(scale=2.0, size=64)
    data, model, outdir = tmp_path / "data.csv", tmp_path / "pca.json", tmp_path / "audit"
    save_csv(Dataset(x=x), data)
    save_model(pca_fit(x, d=2), model)
    assert run("audit", "--model", model, "--data", data, "--epsilon", 0.1, "--seed", 11,
               "-o", outdir) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert [r["cell_count"] for r in report["regions"]] == [40000]
    artifacts = read_bytes_map([model, outdir / "grid.csv", outdir / "report.json",
                                outdir / "heatmap.svg"])
    artifacts["report.json"] = artifacts["report.json"].replace(
        json.dumps(str(model)).encode(), b'"pca.json"'
    )
    digests = {name: hashlib.sha256(b).hexdigest() for name, b in artifacts.items()}
    assert digests == PINNED_WIDE_PCA_SHA256


# model.json and train.json of a 200-epoch [2,5,1,5,2] ReLU train on
# `gen-data --family gaussian --n 100 --cov 9,0,0,9 --seed 11`
PINNED_TRAIN_SHA256 = {
    "adam": (
        "454a37afdd2c7d4fe21696f03f3a4f69acc627816e984054b3e13cdacab89466",
        "ca24df4c560334e3057143d68c4c984b109438571563db69d64351352ea0b3a9",
    ),
    "sgd": (
        "8b249b5a1bf50eb3c3c8deb5ee1627ccac547ea0f92060abdfa05ae27cd02963",
        "c7568cec0a284e08f2a63adb1e62285db0271465cef19af621f74501d588e6bd",
    ),
    "no-shuffle": (
        "0d98320b7231f38ab8964c55ad6f21df910008b448b45d7df268d9309c1511c9",
        "e22eb41ff3f17f006a2d12104cdd9fc992c0fed149ba192ba1fd2ffbf58cb6fe",
    ),
}


@pytest.mark.parametrize(
    "case, config", [("adam", None), ("sgd", {"optimizer": "sgd"}), ("no-shuffle", {"shuffle": False})]
)
def test_train_artifacts_pinned(tmp_path, case, config):
    data, model, report = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "train.json"
    assert run("gen-data", "--family", "gaussian", "--n", 100, "--cov", "9,0,0,9", "--seed", 11,
               "-o", data) == 0
    extra = []
    if config is not None:
        extra = ["--config", tmp_path / "config.json"]
        extra[1].write_text(json.dumps(config))
    assert run("train", "--data", data, "--arch", "2,5,1,5,2", "--act", "relu", "--epochs", 200,
               *extra, "-o", model, "--report", report) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (model, report))
    assert digests == PINNED_TRAIN_SHA256[case]


# model.json of the PINNED_TRAIN_SHA256 train with --full-batch: one 100-row
# batch a step, in file order; a --config batch_size or shuffle does not
# override the flag
PINNED_FULL_BATCH_SHA256 = "6908484a593f0f31417289b64adc3e13586eb29bc18af4b89f0d9003006aba19"


@pytest.mark.parametrize(
    "config", [None, {"batch_size": 16, "shuffle": True}], ids=["flag-only", "config-overridden"]
)
def test_train_full_batch_pinned(tmp_path, config):
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert run("gen-data", "--family", "gaussian", "--n", 100, "--cov", "9,0,0,9", "--seed", 11,
               "-o", data) == 0
    extra = []
    if config is not None:
        extra = ["--config", tmp_path / "config.json"]
        extra[1].write_text(json.dumps(config))
    assert run("train", "--data", data, "--arch", "2,5,1,5,2", "--act", "relu", "--epochs", 200,
               "--full-batch", *extra, "-o", model) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == PINNED_FULL_BATCH_SHA256


# pgd.json of `attack --method pgd --delta 2 --steps 100 --restarts 4 --seed 11`
# against the Adam model of PINNED_TRAIN_SHA256, recorded before the
# push-off was batched: at the default step size the push-off moves at
# least one restart on each of the 100 steps (262 pushes), and at
# --step-size 1e6 every restart diverges
PINNED_PGD_SHA256 = {
    "1e-2": "fa97ecaf79110a2b2fe6eb90240a794286ba4467be0b56bf1d3c9cd539e57b61",
    "1e6": "2e1fcefe98f0ec99d3c1988908e48a3c00fe26a8d0d546415e97451832bd7628",
}


@pytest.mark.parametrize("step_size", PINNED_PGD_SHA256)
def test_attack_pgd_artifacts_pinned(tmp_path, step_size):
    data, model, out = tmp_path / "data.csv", tmp_path / "model.json", tmp_path / "pgd.json"
    assert run("gen-data", "--family", "gaussian", "--n", 100, "--cov", "9,0,0,9", "--seed", 11,
               "-o", data) == 0
    assert run("train", "--data", data, "--arch", "2,5,1,5,2", "--act", "relu", "--epochs", 200,
               "-o", model) == 0
    assert run("attack", "--model", model, "--data", data, "--method", "pgd", "--delta", 2,
               "--steps", 100, "--restarts", 4, "--seed", 11, "--step-size", step_size,
               "-o", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_PGD_SHA256[step_size]


# sha256 of an mnist-conv2 pipeline on `conftest._draw_digits(16, side=28)`:
# a 2-epoch train at batch 8, the latent audit at 32x32 (1024 decoded nodes,
# so every conv layer's forward runs in several sample chunks), and the
# latent and PGD attacks; report.json with its model path as "conv.json".
# Recorded with numpy 2.4 on OpenBLAS (x86-64) once the conv weight
# gradients were per-sample GEMMs, whose bits are the same with one BLAS
# thread or two (test_conv_artifacts_independent_of_blas_threads)
PINNED_CONV_SHA256 = {
    "conv.json": "bdd40bdcfdd011d5bfb505e28bb727c75c61e439708189165c46b2a0eb0b0c3f",
    "train.json": "67944a2280fec4a0ed152182ead1d26401d3704e4bfcecd333ec46fcea1630ce",
    "grid.csv": "a8f0a4a6b05805310f9a8549a0f0bb33e0819c9369418c07497b2870a59efb54",
    "report.json": "c58a6978438315ceab566e05c377bf63dba42a6261813319348c7d77d196cddc",
    "latent.json": "e188bfc7753ac4acb725f4bb48f88b3c93717d2d7bca093eb15ecfec7ce3e2aa",
    "pgd.json": "501748f8cf237663e692cd88c98065dc50cc0cacbb4cf8dbe743084e930aec67",
}


def conv_pipeline_digests(tmp_path):
    """sha256 of each artifact of the PINNED_CONV_SHA256 pipeline, run in tmp_path."""
    from conftest import _draw_digits

    images, labels = _draw_digits(16, side=28)
    img, lab, pixels = tmp_path / "img.idx", tmp_path / "lab.idx", tmp_path / "pixels.csv"
    save_idx(images, labels, img, lab)
    save_csv(Dataset(x=images.reshape(images.shape[0], -1) / 255.0), pixels)
    model, outdir = tmp_path / "conv.json", tmp_path / "audit"
    assert run("train", "--preset", "mnist-conv2", "--mnist-images", img, "--mnist-labels", lab,
               "--epochs", 2, "--batch-size", 8, "--seed", 3, "-o", model,
               "--report", tmp_path / "train.json") == 0
    assert run("audit", "--model", model, "--data", pixels, "--resolution", "32,32",
               "--seed", 3, "-o", outdir) in (0, 3)
    assert run("attack", "--model", model, "--data", pixels, "--method", "latent",
               "--z", "4,-3", "-o", tmp_path / "latent.json") == 0
    assert run("attack", "--model", model, "--data", pixels, "--method", "pgd", "--delta", 5,
               "--steps", 10, "--restarts", 2, "--seed", 3, "-o", tmp_path / "pgd.json") == 0
    artifacts = read_bytes_map([model, tmp_path / "train.json", outdir / "grid.csv",
                                outdir / "report.json", tmp_path / "latent.json",
                                tmp_path / "pgd.json"])
    artifacts["report.json"] = artifacts["report.json"].replace(
        json.dumps(str(model)).encode(), b'"conv.json"'
    )
    return {name: hashlib.sha256(b).hexdigest() for name, b in artifacts.items()}


def test_conv_artifacts_pinned(tmp_path):
    assert conv_pipeline_digests(tmp_path) == PINNED_CONV_SHA256


def test_conv_artifacts_independent_of_blas_threads(tmp_path):
    # the same pipeline in fresh processes with one and two BLAS threads;
    # the thread count is read when numpy loads, so it cannot change in-process
    tests_dir = Path(__file__).resolve().parent
    script = (
        "import json, sys; from pathlib import Path; "
        f"sys.path[:0] = [{str(tests_dir)!r}, {str(tests_dir.parent / 'src')!r}]; "
        "from test_cli import conv_pipeline_digests; "
        "print(json.dumps(conv_pipeline_digests(Path(sys.argv[1]))))"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        workdir = tmp_path / f"threads-{threads}"
        workdir.mkdir()
        out = subprocess.run([sys.executable, "-c", script, str(workdir)], env=env,
                             capture_output=True, text=True, check=True).stdout
        digests.append(json.loads(out.strip().splitlines()[-1]))
    assert digests[0] == digests[1]


def test_audit_unsupported_dims_exit_2(tmp_path):
    rng = Rng(13)
    x = rng.normals((20, 5))
    csv_path = tmp_path / "d5.csv"
    save_csv(Dataset(x=x), csv_path)
    model_path = tmp_path / "pca5.json"
    save_model(pca_fit(x, d=3), model_path)
    code = run("audit", "--model", model_path, "--data", csv_path, "-o", tmp_path / "out")
    assert code == 2


# --- attack -------------------------------------------------------------------------


def test_attack_analytic_pca(tmp_path, gaussian_csv, pca_model_file, capsys):
    out = tmp_path / "adv.json"
    code = run(
        "attack", "--model", pca_model_file, "--data", gaussian_csv,
        "--method", "analytic", "--delta", 100, "-o", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["loss"] < 1e-10
    assert doc["min_dist_to_train"] > 100.0
    assert doc["verdict"]["undetected"] is True
    stdout_verdict = json.loads(capsys.readouterr().out.strip())
    assert stdout_verdict["undetected"] is True


def test_attack_analytic_on_nonlinear_model_exit_2(tmp_path, gaussian_csv):
    from aeaudit.models import build_mlp_autoencoder

    model_path = tmp_path / "relu.json"
    save_model(build_mlp_autoencoder([2, 4, 1, 4, 2], activation="relu", seed=0), model_path)
    code = run(
        "attack", "--model", model_path, "--data", gaussian_csv,
        "--method", "analytic", "--delta", 10, "-o", tmp_path / "r.json",
    )
    assert code == 2


@pytest.mark.parametrize(
    "activation, delta, message",
    [
        ("linear", "1e200", "delta must be > 0 with a finite square, got 1e+200"),
        ("linear", "nan", "delta must be > 0 with a finite square, got nan"),
        ("relu", "10", "analytic attacks need a PCA model or an all-linear autoencoder"),
    ],
    ids=["linear-delta-overflows", "linear-delta-nan", "relu"],
)
def test_attack_analytic_error_names_its_cause(tmp_path, gaussian_csv, capsys, activation, delta,
                                               message):
    model_path = tmp_path / "ae.json"
    save_model(build_mlp_autoencoder([2, 1, 2], activation=activation, seed=0), model_path)
    code = run("attack", "--model", model_path, "--data", gaussian_csv, "--method", "analytic",
               "--delta", delta, "-o", tmp_path / "adv.json")
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    if activation == "linear":
        assert "PCA model" not in err


def test_attack_latent_method(tmp_path, gaussian_csv):
    from aeaudit.models import build_mlp_autoencoder

    model_path = tmp_path / "ae2.json"
    save_model(build_mlp_autoencoder([2, 5, 2, 5, 2], activation="relu", seed=1), model_path)
    out = tmp_path / "latent.json"
    code = run(
        "attack", "--model", model_path, "--data", gaussian_csv,
        "--method", "latent", "--z=-4.2,-5.2", "-o", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "latent_decode"
    assert doc["latent_point"] == [-4.2, -5.2]


def test_attack_pgd_deterministic_json(tmp_path, gaussian_csv):
    from aeaudit.models import build_mlp_autoencoder

    model_path = tmp_path / "ae.json"
    save_model(build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=2), model_path)
    outs = []
    for tag in ("p", "q"):
        out = tmp_path / f"{tag}.json"
        code = run(
            "attack", "--model", model_path, "--data", gaussian_csv,
            "--method", "pgd", "--delta", 5, "--steps", 40, "--restarts", 3,
            "--seed", 3, "-o", out,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_attack_pgd_divergence_reports_search_failed(tmp_path, capsys):
    data, model, out = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "a.json"
    assert run("gen-data", "--family", "gaussian", "--seed", 42, "-o", data) == 0
    assert run(
        "train", "--data", data, "--arch", "2,5,1,5,2", "--epochs", 200, "--lr", "1e-2",
        "--seed", 0, "-o", model,
    ) == 0
    code = run(
        "attack", "--model", model, "--data", data, "--method", "pgd", "--delta", 1,
        "--steps", 2000, "--restarts", 2, "--step-size", "1e6", "-o", out,
    )
    assert code == 0
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["search_failed"] is True
    assert doc["diagnostics"]["statuses"] == ["diverged", "diverged"]


@pytest.mark.parametrize("method", ["pgd", "analytic"])
def test_attack_delta_square_overflows_exit_2(tmp_path, gaussian_csv, pca_model_file, capsys,
                                              method):
    # 1e200 is finite, but its square is not: unchecked, the push-off's
    # ray walk never ends, so --steps 0 keeps a regression from hanging
    model, pgd_flags = pca_model_file, []
    if method == "pgd":
        model, pgd_flags = tmp_path / "mlp.json", ["--steps", 0, "--restarts", 1]
        save_model(build_mlp_autoencoder([2, 5, 1, 5, 2], seed=2), model)
    code = run("attack", "--model", model, "--data", gaussian_csv, "--method", method,
               "--delta", "1e200", *pgd_flags, "-o", tmp_path / "adv.json")
    assert code == 2
    err = capsys.readouterr().err
    assert "delta must be > 0 with a finite square" in err
    assert not (tmp_path / "adv.json").exists()


def _overflowing_model():
    big = 1e200
    return AutoencoderModel(
        encoder=[DenseLayer(np.full((2, 1), big), np.zeros(1), "linear")],
        decoder=[DenseLayer(np.full((1, 2), big), np.zeros(2), "linear")],
        input_shape=(2,),
        latent_dim=1,
    )


@pytest.mark.parametrize(
    "model, argv",
    [
        pytest.param("mlp", ["attack", "--method", "pgd", "--delta", "nan"], id="pgd-delta-nan"),
        pytest.param("mlp", ["audit", "--epsilon", "nan"], id="audit-epsilon-nan"),
        pytest.param("mlp", ["audit", "--far-threshold", "nan"], id="audit-far-threshold-nan"),
        pytest.param("overflow", ["attack", "--method", "pgd"], id="attack-overflowing-scores"),
    ],
)
def test_non_finite_number_exit_2(tmp_path, gaussian_csv, capsys, model, argv):
    path = tmp_path / "model.json"
    if model == "mlp":
        save_model(build_mlp_autoencoder([2, 5, 1, 5, 2], seed=2), path)
    else:
        save_model(_overflowing_model(), path)
    if argv[0] == "attack":
        argv = argv + ["--steps", 5, "--restarts", 2]
    code = run(*argv, "--model", path, "--data", gaussian_csv, "-o", tmp_path / "out")
    assert code == 2
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param([], "far_threshold must be finite and >= 0, got inf", id="default-threshold"),
        pytest.param(["--far-threshold", 1], "non-finite distance to the training data",
                     id="given-threshold"),
    ],
)
def test_audit_non_finite_training_distance_exit_2_writing_nothing(tmp_path, capsys, flags,
                                                                 message):
    # one huge weight before the latent layer puts the encodings of the
    # training rows out of float range: the default far threshold overflows,
    # and a given one leaves each region's distance at inf - inf; the overflow
    # is refused by the finite checks, not printed as a numpy warning
    model = build_conv_autoencoder((4, 4), channels=(2, 2), seed=4)
    model.encoder[3].weight[0, 0] = 1e300
    save_model(model, tmp_path / "conv.json")
    save_csv(Dataset(x=Rng(3).uniforms(0.0, 1.0, (6, 16))), tmp_path / "data.csv")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("audit", "--model", tmp_path / "conv.json", "--data", tmp_path / "data.csv",
                   "--resolution", "4,4", "--epsilon", 1e300, *flags, "-o", out)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_audit_nan_training_encoding_exit_2_writing_nothing(tmp_path, capsys):
    # the row (10, 10) encodes to (inf, inf), then to inf - inf = nan; with
    # the bounds and far threshold given, nothing else computes from the
    # encodings before the regions map each one to its nearest grid node
    model = AutoencoderModel(
        encoder=[DenseLayer(np.array([[1e308, 1e308], [0.0, 0.0]]), np.zeros(2), "linear"),
                 DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), "linear")],
        decoder=[DenseLayer(np.diag([1e-300, 1e-300]), np.zeros(2), "linear")],
        input_shape=(2,),
        latent_dim=2,
    )
    save_model(model, tmp_path / "nan.json")
    save_csv(Dataset(x=np.array([[10.0, 10.0], [0.5, 0.25]])), tmp_path / "data.csv")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("audit", "--model", tmp_path / "nan.json", "--data", tmp_path / "data.csv",
                   "--space", "latent", "--bounds=-1,1,-1,1", "--far-threshold", 1,
                   "--resolution", "4,4", "--epsilon", 1e300, "-o", out)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 2
    assert "non-finite distance to the training data" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_attack_pgm_export(tmp_path):
    rng = Rng(14)
    images = (rng.uniforms(0.0, 1.0, (30, 8, 8)) * 255).astype(np.uint8)
    labels = np.zeros(30, dtype=np.uint8)
    img, lab = tmp_path / "i.idx", tmp_path / "l.idx"
    save_idx(images, labels, img, lab)
    model_path = tmp_path / "conv.json"
    assert run(
        "train", "--preset", "mnist-conv2", "--mnist-images", img, "--mnist-labels", lab,
        "--epochs", 1, "-o", model_path,
    ) == 0

    # image data as CSV for the attack's distance basis
    from aeaudit.datagen import Dataset, load_mnist, save_csv

    ds = load_mnist(img, lab)
    data_csv = tmp_path / "pixels.csv"
    save_csv(ds, data_csv)

    pgm = tmp_path / "adv.pgm"
    code = run(
        "attack", "--model", model_path, "--data", data_csv,
        "--method", "latent", "--z", "0.1,0.2", "-o", tmp_path / "a.json", "--pgm", pgm,
    )
    assert code == 0
    assert pgm.read_bytes().startswith(b"P5\n8 8\n255\n")


def test_attack_latent_on_pca_model(tmp_path, capsys):
    # the latent attack needs only decode_batch and sample_scores, which PCA has
    data, model = tmp_path / "g.csv", tmp_path / "pca.json"
    assert run("gen-data", "--family", "gaussian", "--seed", 7, "--cov", "4,0,0,0.25",
               "-o", data) == 0
    save_model(pca_fit(load_csv(data).x, d=1), model)
    capsys.readouterr()
    code = run("attack", "--model", model, "--data", data, "--method", "latent", "--z=50",
               "-o", tmp_path / "lat.json")
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["undetected"] is True and verdict["score"] < 1e-20
