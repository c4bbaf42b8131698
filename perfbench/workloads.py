"""The three workloads: generated inputs and the staged pipeline of one round.

A round is one client calling the program's public entry points in
sequence, with no concurrency: `aeaudit.cli.main([...])` in-process for
gen-data, train, audit and attack, and `models.pca_fit` + `models.save_model`
for PCA, which has no CLI subcommand. Each stage is timed from outside and
each stage's output is checked by `checks` after its timer stops. A run
repeats whole rounds on the same inputs, so every round attempts the same
operations.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aeaudit import cli, datagen, models  # noqa: E402

import checks  # noqa: E402

STAGES = ("gen_data", "fit", "audit", "attack")


def run_cli(argv: list) -> int:
    """`aeaudit <argv>` in this process; its console output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the command line
            return exc.code


class Round:
    """Stage times and checked operations of one pass through a pipeline.

    `span` opens a trace span around each stage, and `untraced` runs the
    operations that belong to no timed stage; both do nothing by default.
    """

    def __init__(self, span=None, untraced=None) -> None:
        self.times = dict.fromkeys(STAGES, 0.0)
        self.ops: list[tuple[str, str, str]] = []  # (operation, status, message)
        self._span = span or (lambda name: contextlib.nullcontext())
        self.untraced = untraced or contextlib.nullcontext

    @contextlib.contextmanager
    def stage(self, name: str):
        with self._span(f"stage.{name}"):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.times[name] += time.perf_counter() - start

    def op(self, name: str, check) -> None:
        """Record one operation; `check` raises when its output is wrong."""
        try:
            check()
        except checks.KnownFault as exc:
            self.ops.append((name, "known_fault", str(exc)))
        except Exception as exc:  # any other failure marks the output wrong
            self.ops.append((name, "wrong", f"{type(exc).__name__}: {exc}"))
        else:
            self.ops.append((name, "ok", ""))

    @property
    def job_s(self) -> float:
        return sum(self.times.values())


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.dir = Path(workdir)
        self.seed = int(seed)

    def prepare(self) -> None:
        """Write the generated inputs (part of set-up)."""
        self.dir.mkdir(parents=True, exist_ok=True)

    def run_round(self, r: Round) -> None:
        raise NotImplementedError


class MlpFigure1(Workload):
    """2-D Gaussian, sigma 3, and a [2,5,1,5,2] ReLU autoencoder (Figure 1, C7)."""

    name = "mlp-figure1"
    ROWS = 100
    SIGMA = 3.0
    EPOCHS = 2000
    EPSILON = 0.1
    DELTAS = (2.0, 5.0, 10.0)
    PGD = ("--steps", 300, "--restarts", 4)
    # The PGD distance-floor fault, on inputs fixed apart from --seed: a
    # 200-epoch model on `gen-data --family gaussian --seed 42`.
    REPRO_DELTAS = (1.0, 3.0)
    REPRO_PGD = ("--steps", 100, "--restarts", 2, "--seed", 0)

    def run_round(self, r: Round) -> None:
        d, s = self.dir, self.seed
        data, model, report = d / "data.csv", d / "model.json", d / "train.json"
        with r.stage("gen_data"):
            code = run_cli(["gen-data", "--family", "gaussian", "--n", self.ROWS, "--seed", s,
                            "--cov", "9,0,0,9", "-o", data])
        r.op("gen-data", lambda: checks.check_gaussian_csv(code, data, self.ROWS, self.SIGMA))
        with r.stage("fit"):
            code = run_cli(["train", "--data", data, "--arch", "2,5,1,5,2", "--act", "relu",
                            "--epochs", self.EPOCHS, "--batch-size", 32, "--lr", "1e-2",
                            "--seed", s, "-o", model, "--report", report])
        r.op("train", lambda: checks.check_trained(
            code, model, report, checks.read_csv_matrix(data), self.EPOCHS))
        with r.stage("audit"):
            code = run_cli(["audit", "--model", model, "--data", data, "--epsilon", self.EPSILON,
                            "--seed", s, "-o", d / "audit"])
        r.op("audit", lambda: checks.check_audit(
            code, d / "audit", checks.RefModel.load(model), checks.read_csv_matrix(data),
            "input2d", self.EPSILON, inflate=4.0))
        for delta in self.DELTAS:
            adv = d / f"pgd-{delta:g}.json"
            with r.stage("attack"):
                code = run_cli(["attack", "--model", model, "--data", data, "--method", "pgd",
                                "--delta", delta, *self.PGD, "--seed", s, "-o", adv])
            r.op(f"attack-pgd-{delta:g}", lambda: checks.check_attack(
                code, adv, checks.RefModel.load(model), checks.read_csv_matrix(data), "pgd"))
        with r.untraced():
            self._reproduce_pgd_fault(r)

    def _reproduce_pgd_fault(self, r: Round) -> None:
        """Untimed: the distance floor checked where its failure does not
        depend on --seed. These attacks fail for as long as the fault lasts."""
        d = self.dir
        data, model = d / "repro-data.csv", d / "repro-model.json"
        code = run_cli(["gen-data", "--family", "gaussian", "--seed", 42, "-o", data])
        r.op("repro-gen-data", lambda: checks.check_gaussian_csv(code, data, 100, 1.0))
        code = run_cli(["train", "--data", data, "--arch", "2,5,1,5,2", "--epochs", 200,
                        "--lr", "1e-2", "--seed", 0, "-o", model, "--report", d / "repro-train.json"])
        r.op("repro-train", lambda: checks.check_trained(
            code, model, d / "repro-train.json", checks.read_csv_matrix(data), 200))
        for delta in self.REPRO_DELTAS:
            adv = d / f"repro-pgd-{delta:g}.json"
            code = run_cli(["attack", "--model", model, "--data", data, "--method", "pgd",
                            "--delta", delta, *self.REPRO_PGD, "-o", adv])
            r.op(f"repro-attack-pgd-{delta:g}", lambda: checks.check_attack(
                code, adv, checks.RefModel.load(model), checks.read_csv_matrix(data), "pgd",
                delta=delta, enforce_floor=True))


def draw_digits(rng: np.random.Generator, per_digit: int, side: int = 28):
    """Digit-like images: rings for "0" and slanted bars for "1", anti-aliased
    strokes with random centre, size, slant and width. Labels alternate."""
    yy, xx = np.mgrid[0:side, 0:side] + 0.5
    images, labels = [], []
    for _ in range(per_digit):
        for digit in (0, 1):
            cy, cx = side / 2.0 + rng.uniform(-2.0, 2.0, size=2)
            if digit == 0:
                ry = rng.uniform(0.25, 0.33) * side
                rx = ry * rng.uniform(0.6, 0.85)
                width = rng.uniform(1.6, 2.8)
                dist = np.abs(np.hypot((yy - cy) / ry, (xx - cx) / rx) - 1.0) * min(rx, ry)
            else:
                slant = rng.uniform(-0.35, 0.35)
                half = rng.uniform(0.28, 0.36) * side
                width = rng.uniform(1.4, 2.4)
                uy, ux = np.cos(slant), np.sin(slant)
                along = np.clip((yy - cy) * uy + (xx - cx) * ux, -half, half)
                dist = np.hypot(yy - cy - along * uy, xx - cx - along * ux)
            ink = np.clip(1.0 - (dist - width / 2.0), 0.0, 1.0)
            images.append(np.rint(ink * 255.0).astype(np.uint8))
            labels.append(digit)
    return np.stack(images), np.array(labels, dtype=np.uint8)


class ConvDigits(Workload):
    """mnist-conv2 on generated 28x28 digit images (the paper's image experiment, C8)."""

    name = "conv-digits"
    PER_DIGIT = 96
    EPOCHS = 3
    EPSILON = 0.1
    RESOLUTION = "32,32"
    CHECKED_NODES = 24
    DELTA = 5.0
    PGD = ("--steps", 20, "--restarts", 2)

    def prepare(self) -> None:
        super().prepare()
        images, labels = draw_digits(np.random.default_rng(self.seed), self.PER_DIGIT)
        datagen.save_idx(images, labels, self.dir / "images.idx", self.dir / "labels.idx")
        self.x = images.reshape(images.shape[0], -1) / 255.0
        # the attack CLI reads training rows from CSV
        datagen.save_csv(datagen.Dataset(x=self.x), self.dir / "pixels.csv")

    def run_round(self, r: Round) -> None:
        d, s, x = self.dir, self.seed, self.x
        model, report, pixels = d / "conv.json", d / "train.json", d / "pixels.csv"
        with r.stage("fit"):
            code = run_cli(["train", "--preset", "mnist-conv2", "--mnist-images", d / "images.idx",
                            "--mnist-labels", d / "labels.idx", "--digits", "0,1",
                            "--epochs", self.EPOCHS, "--seed", s, "-o", model, "--report", report])
        r.op("train", lambda: checks.check_trained(code, model, report, x, self.EPOCHS))
        with r.stage("audit"):
            code = run_cli(["audit", "--model", model, "--data", pixels, "--epsilon", self.EPSILON,
                            "--resolution", self.RESOLUTION, "--seed", s, "-o", d / "audit"])
        r.op("audit", lambda: checks.check_audit(
            code, d / "audit", checks.RefModel.load(model), x, "latent2d", self.EPSILON,
            inflate=2.0, sample=self.CHECKED_NODES))
        # a far latent point: the outer corner of the audited plane
        bounds = checks.read_json(d / "audit" / "report.json")["bounds"]
        z = (bounds[1], bounds[3])
        with r.stage("attack"):
            code = run_cli(["attack", "--model", model, "--data", pixels, "--method", "latent",
                            f"--z={z[0]!r},{z[1]!r}", "-o", d / "latent.json"])
        r.op("attack-latent", lambda: checks.check_attack(
            code, d / "latent.json", checks.RefModel.load(model), x, "latent", z=z))
        with r.stage("attack"):
            code = run_cli(["attack", "--model", model, "--data", pixels, "--method", "pgd",
                            "--delta", self.DELTA, *self.PGD, "--seed", s, "-o", d / "pgd.json"])
        r.op("attack-pgd", lambda: checks.check_attack(
            code, d / "pgd.json", checks.RefModel.load(model), x, "pgd"))


class PcaWide(Workload):
    """PCA on low-rank-plus-noise tabular data (the paper's linear theory)."""

    name = "pca-wide"
    ROWS = 1000
    COLS = 64
    EPSILON = 0.1
    DELTAS = (10.0, 100.0, 1000.0)

    def prepare(self) -> None:
        super().prepare()
        rng = np.random.default_rng(self.seed)
        plane = np.linalg.qr(rng.normal(size=(self.COLS, 2)))[0].T  # (2, COLS), orthonormal rows
        latent = rng.normal(size=(self.ROWS, 2)) * np.array([5.0, 3.0])
        tail = rng.normal(size=(self.ROWS, self.COLS)) * 0.1
        x = latent @ plane + tail + rng.normal(scale=2.0, size=self.COLS)
        datagen.save_csv(datagen.Dataset(x=x), self.dir / "data.csv")
        self.x = x

    def run_round(self, r: Round) -> None:
        d, x = self.dir, self.x
        model, data = d / "pca.json", d / "data.csv"
        with r.stage("fit"):
            models.save_model(models.pca_fit(x, d=2), model)
        r.op("fit", lambda: checks.check_pca(model, x, 2))
        with r.stage("audit"):
            code = run_cli(["audit", "--model", model, "--data", data, "--epsilon", self.EPSILON,
                            "--seed", self.seed, "-o", d / "audit"])
        # rounding level: a few hundred ulps of the largest coordinate the plane decodes to
        level = (1e3 * np.finfo(np.float64).eps * 10.0 * float(np.abs(x).max())) ** 2
        r.op("audit", lambda: checks.check_audit(
            code, d / "audit", checks.RefModel.load(model), x, "latent2d", self.EPSILON,
            inflate=2.0, losses_at_rounding=level))
        for delta in self.DELTAS:
            adv = d / f"analytic-{delta:g}.json"
            with r.stage("attack"):
                code = run_cli(["attack", "--model", model, "--data", data, "--method", "analytic",
                                "--delta", delta, "-o", adv])
            r.op(f"attack-analytic-{delta:g}", lambda: checks.check_attack(
                code, adv, checks.RefModel.load(model), x, "analytic", delta=delta))


WORKLOADS = {w.name: w for w in (MlpFigure1, ConvDigits, PcaWide)}
