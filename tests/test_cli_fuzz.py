"""Malformed-input fuzzing of the command-line interface.

Every subcommand is called in-process with malformed input: number lists
that do not parse or have the wrong count, model documents and train
configs with one field removed or retyped (numbers past float range
included, and a weight row that makes a latent audit's encoding nan while
its bounds and far threshold are given), train configs with unknown keys,
score baselines that are truncated, lack or repeat their score column, hold
non-numeric or non-finite cells or are binary, truncated IDX and CSV
files, and data CSVs of digits, signs, points and exponents that may hold
one foreign byte (read as the exact CSV reader reads them). Whatever the
input,
the exit code must never be 1 (internal error): a malformed input is a
usage or input error (2), and an input that happens to stay well formed
runs as usual.
"""

import contextlib
import io
import json
import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeaudit import datagen
from aeaudit.cli import main
from aeaudit.datagen import Dataset, save_csv, save_idx
from aeaudit.layers import DenseLayer
from aeaudit.models import (
    AutoencoderModel,
    Preprocessing,
    build_conv_autoencoder,
    build_mlp_autoencoder,
    pca_fit,
    save_model,
)
from aeaudit.rng import Rng
from aeaudit.training import TrainConfig

FUZZ = settings(max_examples=40)

# small enough that a well-formed command still runs in milliseconds
FAST = {
    "train": ["--epochs", 1],
    "audit": ["--resolution", "4,4"],
    "attack": ["--method", "pgd", "--steps", 1, "--restarts", 1, "--delta", 0.5],
}


def exit_code(argv) -> tuple[int, str]:
    """main(argv)'s exit code, argparse's included, and what it printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, sink.getvalue()


def assert_not_internal(argv) -> None:
    code, out = exit_code(argv)
    assert code != 1, f"aeaudit {' '.join(map(str, argv))} exited 1:\n{out}"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Well-formed inputs: a 2-column CSV with PCA, MLP and standardized MLP
    models for it, a 4x4 IDX pair, a 16-column CSV with a conv model, and a
    2-row CSV with a linear 2-D autoencoder whose encodings are both 0."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = Rng(3)
    x2 = rng.uniforms(-1.0, 1.0, (12, 2))
    save_csv(Dataset(x=x2), root / "data2.csv")
    images = np.array(rng.uniforms(0.0, 255.0, (6, 4, 4)), dtype=np.uint8)
    save_idx(images, np.arange(6) % 2, root / "images.idx", root / "labels.idx")
    save_csv(Dataset(x=images.reshape(6, 16) / 255.0), root / "data16.csv")
    save_csv(Dataset(x=np.array([[10.0, 10.0], [0.5, 0.25]])), root / "lin.csv")
    pre = Preprocessing(mean=x2.mean(axis=0), std=x2.std(axis=0))
    models = {
        "pca": (pca_fit(x2, 1), "data2.csv"),
        "mlp": (build_mlp_autoencoder([2, 3, 1, 3, 2], seed=1), "data2.csv"),
        "std": (build_mlp_autoencoder([2, 3, 2, 3, 2], seed=2, preprocessing=pre), "data2.csv"),
        "conv": (build_conv_autoencoder((4, 4), channels=(2, 2), seed=4), "data16.csv"),
        "lin": (AutoencoderModel(
            encoder=[DenseLayer(np.array([[1.0, 1.0], [0.0, 0.0]]), np.zeros(2), "linear"),
                     DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), "linear")],
            decoder=[DenseLayer(np.diag([1e-300, 1e-300]), np.zeros(2), "linear")],
            input_shape=(2,),
            latent_dim=2,
        ), "lin.csv"),
    }
    for name, (model, _) in models.items():
        save_model(model, root / f"{name}.json")
    return root, {name: data for name, (_, data) in models.items()}


# --- number lists -------------------------------------------------------------

TOKENS = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["", "x", "0.5", "-1.5", "1e400", "nan", "inf", " 2", "2,"]),
)
NUMBER_LISTS = st.lists(TOKENS, max_size=6).map(",".join)

# (command prefix, list flag); the data and model come from the fixture
LIST_FLAGS = [
    (["gen-data", "--family", "gaussian", "--n", 5], "--mean"),
    (["gen-data", "--family", "double_gaussian", "--n", 5], "--cov"),
    (["gen-data", "--family", "banana", "--n", 5], "--x-range"),
    (["gen-data", "--family", "diagonal", "--n", 5], "--alpha-range"),
    (["train", "--data", "data2.csv", *FAST["train"]], "--arch"),
    (["train", "--preset", "mnist-conv2", "--mnist-images", "images.idx",
      "--mnist-labels", "labels.idx", *FAST["train"]], "--digits"),
    (["audit", "--model", "pca.json", "--data", "data2.csv"], "--bounds"),
    (["audit", "--model", "pca.json", "--data", "data2.csv"], "--resolution"),
    (["attack", "--model", "mlp.json", "--data", "data2.csv", "--method", "latent"], "--z"),
]


def _rooted(root, argv):
    """argv with every fixture file name made a path under root."""
    return [root / a if isinstance(a, str) and a.endswith((".csv", ".json", ".idx")) else a
            for a in argv]


@FUZZ
@given(case=st.sampled_from(LIST_FLAGS), text=NUMBER_LISTS)
def test_malformed_number_list_never_exits_1(files, case, text):
    root, _ = files
    prefix, flag = case
    out = root / ("out" if prefix[0] == "audit" else "out.json")
    assert_not_internal([*_rooted(root, prefix), flag, text, "-o", out])


# --- model documents ------------------------------------------------------------


def _paths(doc, prefix=()):
    """Every dict key and the first and last entry of every list, as paths."""
    if isinstance(doc, dict):
        items = list(doc.items())
    elif isinstance(doc, list) and doc:
        items = sorted({0: doc[0], len(doc) - 1: doc[-1]}.items())
    else:
        return
    for key, value in items:
        yield (*prefix, key)
        yield from _paths(value, (*prefix, key))


RETYPED = [None, "x", True, 0, -1, 1.5, [], {}, [1.0], [[1.0]], 10**400, 2**63, 1e300, -1e300]
REMOVE = object()


def _mutated(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is REMOVE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def broken_models(draw):
    name = draw(st.sampled_from(["pca", "mlp", "std", "conv"]))
    command = draw(st.sampled_from(["score", "audit", "attack"]))
    return name, command, draw(st.integers(0, 10**6)), draw(st.sampled_from([REMOVE, *RETYPED]))


def _run_broken_model(files, name, command, path, value, flags=()):
    root, data = files
    doc = json.loads((root / f"{name}.json").read_text())
    (root / "broken.json").write_text(json.dumps(_mutated(doc, path, value)))
    out = root / ("out" if command == "audit" else "out.csv")
    assert_not_internal([command, "--model", root / "broken.json", "--data", root / data[name],
                         *FAST.get(command, []), *flags, "-o", out])


@FUZZ
@given(case=broken_models())
def test_model_document_with_a_field_removed_or_retyped_never_exits_1(files, case):
    root, _ = files
    name, command, pick, value = case
    paths = list(_paths(json.loads((root / f"{name}.json").read_text())))
    _run_broken_model(files, name, command, paths[pick % len(paths)], value)


# pairs that 40 random draws can miss: an integer past float range, a
# weight that puts the encodings of the training rows past it, and a weight
# row that makes one encoding inf - inf = nan; with the bounds and far
# threshold given, nothing but the regions' distances computes from it
@pytest.mark.parametrize("name, command, path, value, flags", [
    pytest.param("pca", "score", ("mean", 0), 10**400, (), id="pca-mean-1e400-score"),
    pytest.param("conv", "audit", ("encoder", 3, "weight", 0, 0), 1e300, (),
                 id="conv-encoder-weight-1e300-audit"),
    pytest.param("lin", "audit", ("encoder", 0, "weight", 0), [1e308, 1e308],
                 ("--space", "latent", "--bounds=-1,1,-1,1", "--far-threshold", 1,
                  "--epsilon", 1e300),
                 id="lin-encoder-weight-1e308-nan-latent-audit-with-bounds"),
])
def test_model_document_with_a_huge_value_never_exits_1(files, name, command, path, value,
                                                       flags):
    _run_broken_model(files, name, command, path, value, flags)


# --- truncated files --------------------------------------------------------------


@FUZZ
@given(which=st.sampled_from(["images.idx", "labels.idx", "data2.csv"]),
       keep=st.floats(0.0, 1.0), command=st.sampled_from(["score", "audit", "attack", "train"]))
def test_truncated_idx_or_csv_never_exits_1(files, which, keep, command):
    root, _ = files
    data = (root / which).read_bytes()
    (root / f"cut-{which}").write_bytes(data[: int(keep * len(data))])
    if which.endswith(".idx"):
        idx = {"images.idx": root / "images.idx", "labels.idx": root / "labels.idx"}
        idx[which] = root / f"cut-{which}"
        argv = ["train", "--preset", "mnist-conv2", "--mnist-images", idx["images.idx"],
                "--mnist-labels", idx["labels.idx"], *FAST["train"], "-o", root / "out.json"]
    elif command == "train":
        argv = ["train", "--data", root / "cut-data2.csv", "--arch", "2,1,2", *FAST["train"],
                "-o", root / "out.json"]
    else:
        argv = [command, "--model", root / "mlp.json", "--data", root / "cut-data2.csv",
                *FAST.get(command, []), "-o", root / ("out" if command == "audit" else "out.csv")]
    assert_not_internal(argv)


# --- data CSVs ------------------------------------------------------------------------

NUMBER_CELLS = st.floats(-10.0, 10.0).map(repr)
DATA_CELLS = st.one_of(
    *[NUMBER_CELLS] * 6,
    st.text(alphabet="0123456789eE+-.", max_size=4),
    st.sampled_from(["-0.0", "1e400", "5e-324", "1e300", "-1e300"]),
)


@st.composite
def data_csvs(draw):
    """Data CSV bytes: rows of two cells (now and then one or three) and
    blank lines over load_csv's plain alphabet, half of them with one
    foreign byte inserted."""
    rows = st.sampled_from([2, 2, 2, 2, 1, 3]).flatmap(
        lambda n: st.lists(DATA_CELLS, min_size=n, max_size=n))
    lines = draw(st.lists(st.one_of(rows, rows, rows, st.just([])), max_size=5))
    data = "\n".join(map(",".join, lines)).encode() + draw(st.sampled_from([b"", b"\n"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255).filter(lambda b: b not in datagen._PLAIN_CSV_BYTES))
        data = data[:at] + bytes([byte]) + data[at:]
    return data


@pytest.mark.parametrize("command", ["score", "audit"])
@FUZZ
@given(data=data_csvs())
def test_data_csv_reads_as_the_exact_reader_does_and_never_exits_1(files, command, data):
    root, _ = files
    (root / "fuzz.csv").write_bytes(data)
    out = root / ("out" if command == "audit" else "out.csv")
    argv = [command, "--model", root / "pca.json", "--data", root / "fuzz.csv",
            *FAST.get(command, []), "-o", out]
    code, said = exit_code(argv)
    assert code != 1, f"aeaudit {' '.join(map(str, argv))} exited 1:\n{said}"
    with mock.patch("aeaudit.cli.load_csv", datagen._load_csv_exact):
        assert exit_code(argv) == (code, said)


# --- train configs ------------------------------------------------------------------
# every field against every value: a handful of bad pairs among a few
# hundred would slip past a random sample

CONFIG = {**{f.name: f.default for f in fields(TrainConfig)}, "epochs": 1, "batch_size": 4}
# the one string value: a directory under the fixture's root, so that no
# case can write into the working directory
PATH = object()
HUGE = (2**64, 10**400)  # never an epoch count: training would not end
CONFIG_VALUES = [REMOVE, PATH, None, True, [], [1.0], {}, float("nan"), float("inf"),
                 -1, 0, 1.5, *HUGE]


def broken_configs():
    """Every config with one field removed or retyped, and some with an unknown key."""
    for name in sorted(CONFIG):
        for value in CONFIG_VALUES:
            if name != "epochs" or not any(value is h for h in HUGE):
                yield _mutated(dict(CONFIG), (name,), value)
    for key in ("momentum", "", "Epochs"):
        yield {**CONFIG, key: 0}


def test_malformed_train_config_never_exits_1(files):
    root, _ = files
    for doc in broken_configs():
        doc = {k: str(root / "ck") if v is PATH else v for k, v in doc.items()}
        (root / "config.json").write_text(json.dumps(doc))
        assert_not_internal(["train", "--data", root / "data2.csv", "--arch", "2,1,2",
                             *FAST["train"], "--config", root / "config.json",
                             "-o", root / "out.json"])


# --- score baselines ----------------------------------------------------------------

BASELINE_HEADERS = ["index,score,label", "score", "index,label", "score,score",
                    "index,score,score", "", "Score", " score"]
BASELINE_CELLS = ["0", "1.5", "-2", "1e-300", "1e999", "nan", "inf", "-inf", "x", "", " "]


@st.composite
def broken_baselines(draw):
    """Baseline CSV bytes: binary, or a table that may be cut short."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    rows = st.lists(st.sampled_from(BASELINE_CELLS), max_size=4).map(",".join)
    text = "\n".join([draw(st.sampled_from(BASELINE_HEADERS)), *draw(st.lists(rows, max_size=4))])
    return text.encode()[: math.ceil(draw(st.floats(0.0, 1.0)) * len(text))]


@FUZZ
@given(data=broken_baselines())
def test_malformed_score_baseline_never_exits_1(files, data):
    root, _ = files
    (root / "baseline.csv").write_bytes(data)
    assert_not_internal(["score", "--model", root / "pca.json", "--data", root / "data2.csv",
                         "--baseline", root / "baseline.csv", "-o", root / "out.csv"])
