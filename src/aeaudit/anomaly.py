"""Reconstruction-loss anomaly scoring and the detector failure criterion.

A sample's anomaly score is the loss between the sample and its own
reconstruction, in raw input space. The detector fails on a point that is
far from all training data yet scores at or below the *minimum* training
score: it would be ranked less anomalous than everything the detector was
trained on.

Two loss conventions are exposed because absolute reported numbers depend
on whether the squared error is averaged or summed over features; "mean"
is the default and every table records which one produced it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numlin
from .datagen import Dataset
from .errors import InputDomainError, NumericalError
from .models import forward_batch

CONVENTIONS = ("mean", "sum")


@dataclass
class ScoreTable:
    """Per-sample anomaly scores, most anomalous first: `order` holds sample
    indices (ties in dataset order), and `scores` and `labels` (or None) follow it."""

    order: np.ndarray
    scores: np.ndarray
    labels: np.ndarray | None
    convention: str

    @property
    def min_score(self) -> float:
        return float(self.scores[-1])

    @property
    def max_score(self) -> float:
        return float(self.scores[0])


@dataclass
class Verdict:
    """Outcome of the failure criterion for one candidate input."""

    undetected: bool
    score: float
    min_normal_score: float
    margin: float  # min_normal_score - score; positive means undetected
    ratio: float  # score / min_normal_score; < 1 is the portable criterion

    def to_json_dict(self) -> dict:
        """Verdict as JSON values; a non-finite number becomes null."""
        return {
            "undetected": self.undetected,
            "score": numlin.finite_or_none(self.score),
            "min_normal_score": self.min_normal_score,
            "margin": numlin.finite_or_none(self.margin),
            "ratio": numlin.finite_or_none(self.ratio),
        }


def sample_scores(model, x: np.ndarray, convention: str = "mean") -> np.ndarray:
    """Vector of per-row reconstruction losses."""
    if convention not in CONVENTIONS:
        raise InputDomainError(f"convention must be one of {CONVENTIONS}")
    xm = numlin.as_matrix(x, "samples", cols=model.input_dim)
    _, xhat = forward_batch(model, xm)
    sq = np.sum((xm - xhat) ** 2, axis=1)
    if convention == "mean":
        sq = sq / xm.shape[1]
    return sq


def score(model, dataset: Dataset, convention: str = "mean") -> ScoreTable:
    """Score every sample of a dataset, training data or not, most anomalous first.

    Raises:
        NumericalError: A score overflowed to a non-finite value.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scores = sample_scores(model, dataset.x, convention)
    if not np.all(np.isfinite(scores)):
        raise NumericalError(f"{int(np.sum(~np.isfinite(scores)))} scores are non-finite")
    order = np.argsort(-scores, kind="stable")
    return ScoreTable(
        order=order,
        scores=scores[order],
        labels=None if dataset.labels is None else dataset.labels[order],
        convention=convention,
    )


def is_undetected(a, model, train_scores: ScoreTable) -> Verdict:
    """Apply the failure criterion: score(a) <= min training score.

    Ties count as undetected. The ratio score/min is the seed-robust
    quantity; the margin is in absolute loss units. train_scores must score
    the model's training data: the caller is responsible for that.
    """
    av = numlin.as_vector(a, "candidate")
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(sample_scores(model, av[None, :], train_scores.convention)[0])
    floor = train_scores.min_score
    ratio = s / floor if floor > 0 else (0.0 if s == 0.0 else float("inf"))
    return Verdict(
        undetected=s <= floor,
        score=s,
        min_normal_score=floor,
        margin=floor - s,
        ratio=ratio,
    )


def write_score_csv(table: ScoreTable, path) -> None:
    """CSV export: index,score,label rows in table (descending) order."""
    labels = [""] * len(table.order) if table.labels is None else table.labels.tolist()
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write("index,score,label\n")
        for index, s, label in zip(table.order.tolist(), table.scores.tolist(), labels):
            f.write(f"{index},{s!r},{label}\n")


def min_score_in(path) -> float:
    """The smallest score in a CSV with one `score` column, as `write_score_csv` writes."""
    best = None
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        if header.count("score") != 1:
            raise InputDomainError(
                f"{path}: baseline CSV needs one 'score' column, found {header.count('score')}"
            )
        col = header.index("score")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                value = float(line.split(",")[col])
            except (IndexError, ValueError):
                raise InputDomainError(
                    f"{path}:{lineno}: baseline row has no numeric 'score' cell"
                ) from None
            if not np.isfinite(value):
                raise InputDomainError(f"{path}:{lineno}: baseline score {value} is not finite")
            best = value if best is None else min(best, value)
    if best is None:
        raise InputDomainError(f"{path}: baseline CSV has no rows")
    return best


def table_summary(table: ScoreTable) -> dict:
    return {
        "count": len(table.order),
        "min_score": table.min_score,
        "max_score": table.max_score,
        "convention": table.convention,
    }
