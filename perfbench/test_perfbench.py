"""Fast tests of the benchmark itself.

Each independent reference must agree with the program on a tiny model, and
each output check must reject a deliberately corrupted artifact.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from aeaudit import audit, numlin  # noqa: E402
from aeaudit.anomaly import sample_scores  # noqa: E402
from aeaudit.cli import main as cli_main  # noqa: E402
from aeaudit.models import (  # noqa: E402
    build_conv_autoencoder,
    build_mlp_autoencoder,
    decode_batch,
    encode_batch,
    pca_fit,
    save_model,
)
from checks import CheckError, KnownFault  # noqa: E402


def _cli(*argv) -> int:
    return cli_main([str(a) for a in argv])


def _ref(model, tmp_path, name="m.json") -> checks.RefModel:
    save_model(model, tmp_path / name)
    return checks.RefModel.load(tmp_path / name)


# --- references agree with the program ---------------------------------------


def test_dense_reference_matches_program(tmp_path):
    model = build_mlp_autoencoder([2, 5, 1, 5, 2], activation="relu", seed=3)
    x = np.random.default_rng(0).normal(size=(50, 2)) * 3.0
    ref = _ref(model, tmp_path)
    assert np.allclose(ref.scores(x), sample_scores(model, x), rtol=1e-12, atol=1e-15)
    assert np.allclose(ref.encode(x), encode_batch(model, x), rtol=1e-12, atol=1e-15)


def test_direct_convolution_matches_program(tmp_path):
    model = build_conv_autoencoder(image_hw=(8, 8), channels=(3, 4), latent_dim=2, seed=5)
    x = np.random.default_rng(1).random((7, 64))
    ref = _ref(model, tmp_path)
    z = encode_batch(model, x)
    assert np.allclose(ref.encode(x), z, rtol=1e-10, atol=1e-12)
    assert np.allclose(ref.decode(z), decode_batch(model, z), rtol=1e-10, atol=1e-12)
    assert np.allclose(ref.scores(x), sample_scores(model, x), rtol=1e-10, atol=1e-14)


def test_brute_force_distances_match_program():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(40, 6))
    points = rng.normal(size=(9, 6)) * 2.0
    got = checks.min_distances(points, rows, chunk=4)
    for p, d in zip(points, got):
        assert d == pytest.approx(numlin.pairwise_min_distance(rows, p), rel=1e-12)
        assert d == pytest.approx(numlin.nearest_row(rows, p)[1], rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_component_labelling_matches_program(seed):
    rng = np.random.default_rng(seed)
    losses = rng.random((int(rng.integers(2, 25)), int(rng.integers(2, 25))))
    eps = float(rng.uniform(0.2, 0.7))
    xs = np.arange(losses.shape[1], dtype=float)
    ys = np.arange(losses.shape[0], dtype=float)
    regions = audit.extract_regions(losses, xs, ys, eps, np.zeros((1, 2)), 1.0)
    assert {frozenset(r.cells) for r in regions} == checks.components(losses < eps)


# --- checks reject corrupted artifacts -----------------------------------------


@pytest.fixture(scope="module")
def mlp_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("mlp")
    assert _cli("gen-data", "--family", "gaussian", "--n", 30, "--seed", 4, "-o", d / "data.csv") == 0
    assert _cli("train", "--data", d / "data.csv", "--arch", "2,5,1,5,2", "--epochs", 30,
                "--lr", "1e-2", "--seed", 1, "-o", d / "model.json", "--report", d / "train.json") == 0
    audit_code = _cli("audit", "--model", d / "model.json", "--data", d / "data.csv",
                      "--epsilon", 0.5, "--resolution", "30,30", "-o", d / "audit")
    assert _cli("attack", "--model", d / "model.json", "--data", d / "data.csv", "--method", "pgd",
                "--delta", 0.5, "--steps", 20, "--restarts", 2, "-o", d / "pgd.json") == 0
    x = checks.read_csv_matrix(d / "data.csv")
    assert checks.read_json(d / "audit" / "report.json")["regions"], "fixture needs a region"
    return d, x, audit_code


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / src.name
    (shutil.copytree if src.is_dir() else shutil.copy)(src, dst)
    return dst


def _edit_json(path: Path, edit) -> None:
    doc = checks.read_json(path)
    edit(doc)
    path.write_text(json.dumps(doc))


def test_gen_data_check_rejects_corruption(mlp_run, tmp_path):
    d, x, _ = mlp_run
    checks.check_gaussian_csv(0, d / "data.csv", 30, 1.0)
    bad = tmp_path / "data.csv"
    np.savetxt(bad, x[:-1], delimiter=",")
    with pytest.raises(CheckError):
        checks.check_gaussian_csv(0, bad, 30, 1.0)
    np.savetxt(bad, x * 3.0, delimiter=",")
    with pytest.raises(CheckError):
        checks.check_gaussian_csv(0, bad, 30, 1.0)


def test_train_check_rejects_corruption(mlp_run, tmp_path):
    d, x, _ = mlp_run
    checks.check_trained(0, d / "model.json", d / "train.json", x, 30)
    model = _copy(d / "model.json", tmp_path)
    _edit_json(model, lambda doc: doc["decoder"][-1]["bias"].__setitem__(0, 1e3))
    with pytest.raises(CheckError):
        checks.check_trained(0, model, d / "train.json", x, 30)
    with pytest.raises(CheckError):
        checks.check_trained(0, d / "model.json", d / "train.json", x, 31)
    with pytest.raises(CheckError):
        checks.check_trained(1, d / "model.json", d / "train.json", x, 30)


def _audit(d, outdir, x, code):
    return checks.check_audit(code, outdir, checks.RefModel.load(d / "model.json"), x,
                              "input2d", 0.5, inflate=4.0)


def test_audit_check_rejects_corruption(mlp_run, tmp_path):
    d, x, code = mlp_run
    _audit(d, d / "audit", x, code)

    bad = _copy(d / "audit", tmp_path)
    lines = (bad / "grid.csv").read_text().splitlines()
    xv, yv, loss = lines[5].split(",")
    lines[5] = f"{xv},{yv},{float(loss) * 1.001!r}"
    (bad / "grid.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckError, match="grid losses"):
        _audit(d, bad, x, code)

    corruptions = [
        lambda doc: doc["regions"][0]["cells"].pop(),
        lambda doc: doc["regions"][0].__setitem__(
            "min_dist_to_train", doc["regions"][0]["min_dist_to_train"] + 1e-3),
        lambda doc: doc.__setitem__("out_of_bounds_found", not doc["out_of_bounds_found"]),
        lambda doc: doc.__setitem__("far_threshold", doc["far_threshold"] * 1.01),
    ]
    for corrupt in corruptions:
        bad = tmp_path / f"audit{corruptions.index(corrupt)}"
        shutil.copytree(d / "audit", bad)
        _edit_json(bad / "report.json", corrupt)
        with pytest.raises(CheckError):
            _audit(d, bad, x, code)
    with pytest.raises(CheckError):
        _audit(d, d / "audit", x, 3 - code)


def test_attack_check_rejects_corruption_and_flags_the_distance_floor(mlp_run, tmp_path):
    d, x, _ = mlp_run
    model = checks.RefModel.load(d / "model.json")
    doc = checks.check_attack(0, d / "pgd.json", model, x, "pgd")
    for key, scale in (("loss", 1.01), ("min_dist_to_train", 1.01)):
        bad = _copy(d / "pgd.json", tmp_path)
        _edit_json(bad, lambda doc: doc.__setitem__(key, doc[key] * scale))
        with pytest.raises(CheckError):
            checks.check_attack(0, bad, model, x, "pgd")
    bad = _copy(d / "pgd.json", tmp_path)
    _edit_json(bad, lambda doc: doc["verdict"].__setitem__("undetected", not doc["verdict"]["undetected"]))
    with pytest.raises(CheckError):
        checks.check_attack(0, bad, model, x, "pgd")
    with pytest.raises(KnownFault):
        checks.check_attack(0, d / "pgd.json", model, x, "pgd",
                            delta=doc["min_dist_to_train"] + 1.0, enforce_floor=True)


@pytest.fixture(scope="module")
def pca_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("pca")
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 2)) @ rng.normal(size=(2, 6)) + 0.01 * rng.normal(size=(60, 6))
    np.savetxt(d / "data.csv", x, delimiter=",", fmt="%.17g")
    save_model(pca_fit(x, d=2), d / "pca.json")
    code = _cli("audit", "--model", d / "pca.json", "--data", d / "data.csv",
                "--resolution", "20,20", "-o", d / "audit")
    assert _cli("attack", "--model", d / "pca.json", "--data", d / "data.csv",
                "--method", "analytic", "--delta", 10, "-o", d / "adv.json") == 0
    return d, x, code


def test_pca_checks_reject_corruption(pca_run, tmp_path):
    d, x, code = pca_run
    checks.check_pca(d / "pca.json", x, 2)
    bad = _copy(d / "pca.json", tmp_path)
    _edit_json(bad, lambda doc: doc["singular_values"].__setitem__(0, doc["singular_values"][0] * (1 + 1e-6)))
    with pytest.raises(CheckError, match="singular"):
        checks.check_pca(bad, x, 2)
    # a basis that is orthonormal but spans another plane
    def tilt(doc):
        b = np.array(doc["basis"])
        other = np.linalg.qr(np.column_stack([b, np.eye(6)]))[0][:, 2]
        b[:, 1] = np.cos(0.01) * b[:, 1] + np.sin(0.01) * other
        doc["basis"] = b.tolist()
    (tmp_path / "tilted").mkdir()
    bad = _copy(d / "pca.json", tmp_path / "tilted")
    _edit_json(bad, tilt)
    with pytest.raises(CheckError, match="plane"):
        checks.check_pca(bad, x, 2)

    model = checks.RefModel.load(d / "pca.json")
    level = (1e3 * np.finfo(float).eps * 10.0 * float(np.abs(x).max())) ** 2
    checks.check_audit(code, d / "audit", model, x, "latent2d", 0.1, inflate=2.0, losses_at_rounding=level)
    with pytest.raises(CheckError, match="rounding"):
        checks.check_audit(code, d / "audit", model, x, "latent2d", 0.1, inflate=2.0,
                           losses_at_rounding=level * 1e-12)

    checks.check_attack(0, d / "adv.json", model, x, "analytic", delta=10.0)
    with pytest.raises(CheckError, match="distance"):
        checks.check_attack(0, d / "adv.json", model, x, "analytic", delta=1e9)
    bad = _copy(d / "adv.json", tmp_path)
    _edit_json(bad, lambda doc: doc.__setitem__("a", (np.array(doc["a"]) + 0.1).tolist()))
    with pytest.raises(CheckError):
        checks.check_attack(0, bad, model, x, "analytic", delta=10.0)


# --- tracer and the benchmark contract -------------------------------------------


def test_tracer_wraps_and_restores(tmp_path):
    import aeaudit.cli
    import aeaudit.training

    before = (aeaudit.cli.train, aeaudit.training.Adam.step, aeaudit.cli.cmd_train)
    t = tracer.Tracer()
    t.install()
    try:
        first = t.start_round()
        with t.span("stage.fit"):
            assert _cli("gen-data", "--family", "gaussian", "--n", 10, "--seed", 1, "-o", tmp_path / "d.csv") == 0
            assert _cli("train", "--data", tmp_path / "d.csv", "--arch", "2,3,1,3,2", "--epochs", 3,
                        "--seed", 1, "-o", tmp_path / "m.json") == 0
    finally:
        t.uninstall()
    assert (aeaudit.cli.train, aeaudit.training.Adam.step, aeaudit.cli.cmd_train) == before
    m = tracer.layer_metrics(t.spans, first, t.counts)
    assert m["rng.derive_seed.calls"] == 3
    assert m["training.backward.calls"] == 3
    assert m["datagen.load_csv.rows"] == 10
    totals = tracer.span_totals(t.spans, first)
    assert 0.0 < m["training.train.self_s"] < totals["training.train"]["busy_s"]
    assert totals["stage.fit"]["busy_s"] >= totals["cli.train"]["busy_s"] >= totals["training.train"]["busy_s"]


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end([_FakeRound()], 1.0))
    per_layer = set(tracer.layer_metrics([], 0, {})) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert {w["name"] for w in spec["workloads"]} == {"mlp-figure1", "conv-digits", "pca-wide"}


class _FakeRound:
    times = {"gen_data": 0.0, "fit": 1.0, "audit": 1.0, "attack": 1.0}
    job_s = 3.0


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pca-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
