"""Constructing and searching for adversarial anomalies.

An adversarial anomaly is an input far from every training sample (minimum
Euclidean distance above a requested delta) that a trained model still
reconstructs with near-zero loss. For PCA and converged linear autoencoders
they can be written down in closed form: any point of the model's
reconstruction-invariant affine subspace works, and moving far enough from
the centroid of the training encodings buys an arbitrary distance floor.
For nonlinear models the module decodes latent-space candidates and runs a
projected gradient search whose restarts step together as one batch.

Every result reports its loss from a fresh forward pass and its distance
from an exhaustive scan over the training rows (`_measured`); nothing is
trusted from the construction or search that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numlin
from .anomaly import sample_scores
from .errors import InputDomainError, NumericalError, SubspaceMismatchError
from .layers import DenseLayer
from .models import (
    AutoencoderModel,
    PcaModel,
    decode_batch,
    encode_batch,
    pca_fit,
)
from .rng import Rng, derive_seed
from .training import input_gradient

# Largest principal angle (radians) between a linear encoder's span and the
# top principal subspace for which the analytic linear construction holds.
ANGLE_TOL = 1e-2


@dataclass
class AdversaryResult:
    """A candidate adversarial anomaly and its independently measured stats.

    min_dist_to_train is always recomputed from the training matrix, and
    loss from a fresh forward pass of a.
    """

    a: np.ndarray
    loss: float
    min_dist_to_train: float
    delta_requested: float
    method: str
    latent_point: np.ndarray | None = None
    annotation: str | None = None
    search_failed: bool = False
    diagnostics: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "a": self.a.tolist(),
            "loss": numlin.finite_or_none(self.loss),
            "min_dist_to_train": numlin.finite_or_none(self.min_dist_to_train),
            "delta_requested": float(self.delta_requested),
            "method": self.method,
            "latent_point": None if self.latent_point is None else self.latent_point.tolist(),
            "annotation": self.annotation,
            "search_failed": self.search_failed,
            "diagnostics": self.diagnostics,
        }


def _measured(model, xm: np.ndarray, a: np.ndarray, delta: float, method: str, **fields):
    """The result for candidate a: its loss from a fresh forward pass and its
    distance from an exhaustive scan of the training rows xm."""
    with np.errstate(over="ignore", invalid="ignore"):
        loss = float(sample_scores(model, a[None, :])[0])
        dist = numlin.pairwise_min_distance(xm, a)
    return AdversaryResult(a=a, loss=loss, min_dist_to_train=dist, delta_requested=delta,
                           method=method, **fields)


def _require_delta(delta: float) -> None:
    # PGD's push-off squares delta, so the square must stay finite too
    if not (delta > 0 and math.isfinite(delta * delta)):
        raise InputDomainError(f"delta must be > 0 with a finite square, got {delta}")


def _latent_walk(model, xm: np.ndarray, delta: float, direction, method: str):
    """Decode a point on a latent ray out of the training encodings' cloud.

    The ray starts at the centroid of the encodings and points along
    `direction` (default: toward the farthest encoding). The walk starts
    past the farthest encoding by delta plus a safety margin and doubles
    the step until the decoded point is farther than delta from every
    training row.
    """
    encodings = encode_batch(model, xm)
    center = encodings.mean(axis=0)
    offsets = encodings - center
    norms = np.sqrt(np.sum(offsets * offsets, axis=1))
    radius = float(norms.max())
    if direction is not None:
        u = numlin.as_vector(direction, "direction", size=encodings.shape[1])
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            raise InputDomainError("direction must be nonzero")
        u = u / nu
    elif radius == 0.0:
        u = np.zeros(encodings.shape[1])
        u[0] = 1.0
    else:
        far = offsets[int(np.argmax(norms))]
        u = far / np.linalg.norm(far)
    t = radius + delta + max(1.0, 0.01 * radius)
    for _ in range(80):
        c = center + t * u
        res = _measured(model, xm, decode_batch(model, c), delta, method, latent_point=c)
        if res.min_dist_to_train > delta:
            return res
        t *= 2.0
    raise NumericalError(
        "decoder collapsed the outward latent direction; could not reach the "
        f"requested distance {delta} (last distance {res.min_dist_to_train:.3g})"
    )


def construct_pca_adversary(
    model: PcaModel, x, delta: float, direction: np.ndarray | None = None
) -> AdversaryResult:
    """Closed-form zero-loss anomaly for a PCA model.

    Walks along the principal subspace: from the centroid of the training
    encodings, past the farthest encoding, by delta plus a safety margin.
    Decoding that latent point gives an exactly self-reconstructing input
    whose distance to every training row exceeds delta, because the latent
    offset is a lower bound on the input-space distance (so the first step
    of the walk always clears delta).
    """
    _require_delta(delta)
    xm = numlin.as_matrix(x, "training data")
    return _latent_walk(model, xm, delta, direction, "analytic_pca")


def _require_linear(layers, part: str) -> None:
    for layer in layers:
        if not isinstance(layer, DenseLayer) or layer.activation != "linear":
            raise InputDomainError(
                "analytic attacks need a PCA model or an all-linear autoencoder; "
                f"this {part} has a non-linear or non-dense layer"
            )


def linear_encoder_matrix(model: AutoencoderModel) -> np.ndarray:
    """Collapse an all-linear dense encoder (plus standardization) to one matrix."""
    _require_linear(model.encoder, "encoder")
    w = None
    for layer in model.encoder:
        w = layer.weight if w is None else w @ layer.weight
    if w is None:
        raise InputDomainError("encoder has no layers")
    if model.preprocessing is not None:
        w = (1.0 / model.preprocessing.std)[:, None] * w
    return w


def construct_linear_ae_adversary(
    model: AutoencoderModel,
    x,
    delta: float,
    direction: np.ndarray | None = None,
) -> AdversaryResult:
    """Closed-form anomaly for a trained linear autoencoder.

    First verifies the encoder span coincides with the top principal
    subspace of the training data (all principal angles below ANGLE_TOL);
    otherwise the zero-loss ray the construction relies on does not exist
    and the call refuses with the measured angles. The walk happens in the
    model's own latent space and the model's own decoder produces a; since
    that decoder is only approximately an isometry, the step length doubles
    until the recomputed input-space distance clears delta.
    """
    _require_delta(delta)
    xm = numlin.as_matrix(x, "training data")
    w_enc = linear_encoder_matrix(model)
    _require_linear(model.decoder, "decoder")
    d = model.latent_dim
    pca = pca_fit(xm, d)
    angles = numlin.principal_angles(w_enc, pca.basis)
    if float(angles.max()) >= ANGLE_TOL:
        raise SubspaceMismatchError(
            f"encoder span is {float(angles.max()):.3e} rad from the top-{d} "
            f"principal subspace (tolerance {ANGLE_TOL:.1e}); train the model "
            f"closer to the optimum",
            angles=angles,
        )
    return _latent_walk(model, xm, delta, direction, "analytic_linear")


def optimal_biases(w_enc, w_dec, x) -> tuple[np.ndarray, np.ndarray]:
    """Loss-minimizing biases for fixed linear encoder/decoder weights.

    For the single-layer linear autoencoder xhat = (x @ w_enc + b_enc) @ w_dec
    + b_dec, the optimum is b_enc = -mean @ w_enc and b_dec = mean: together
    they center the data going in and restore the mean coming out.
    """
    we = numlin.as_matrix(w_enc, "encoder weight")
    wd = numlin.as_matrix(w_dec, "decoder weight")
    n, d = we.shape
    if wd.shape != (d, n):
        raise InputDomainError(f"decoder weight must be {(d, n)}, got {wd.shape}")
    xm = numlin.as_matrix(x, "data", cols=n)
    mean = xm.mean(axis=0)
    return -mean @ we, mean.copy()


def bias_decomposition_residual(w_enc, w_dec, b_enc, b_dec, x) -> float:
    """Bias-dependent term of the loss decomposition around the column mean.

    The mean loss splits into a bias-free part on centered data plus
    (1/n) * |mean - mean @ w_enc @ w_dec - b_enc @ w_dec - b_dec|^2; this
    returns that second term, which the optimal biases drive to zero.
    """
    we = numlin.as_matrix(w_enc, "encoder weight")
    wd = numlin.as_matrix(w_dec, "decoder weight")
    xm = numlin.as_matrix(x, "data")
    be = numlin.as_vector(b_enc, "encoder bias")
    bd = numlin.as_vector(b_dec, "decoder bias")
    mean = xm.mean(axis=0)
    r = mean - mean @ we @ wd - be @ wd - bd
    return float(r @ r) / xm.shape[1]


def build_linear_autoencoder(w_enc, w_dec, b_enc, b_dec) -> AutoencoderModel:
    """Two-layer linear autoencoder with explicit parameters."""
    we = numlin.as_matrix(w_enc, "encoder weight")
    wd = numlin.as_matrix(w_dec, "decoder weight")
    n, d = we.shape
    return AutoencoderModel(
        encoder=[DenseLayer(we, np.asarray(b_enc, dtype=np.float64), "linear")],
        decoder=[DenseLayer(wd, np.asarray(b_dec, dtype=np.float64), "linear")],
        input_shape=(n,),
        latent_dim=d,
    )


def build_relu_toy(beta: float, data_range: tuple[float, float]) -> AutoencoderModel:
    """The 2-to-1 ReLU autoencoder that exactly reconstructs the diagonal.

    Encoder weight beta*(1,1)^T with a bias large enough that every sample
    alpha*(1,1) with alpha in data_range lands strictly in the ReLU's linear
    region; the linear decoder inverts the affine map, so reconstruction on
    the diagonal is exact, arbitrarily far outside the data range.
    """
    if beta == 0.0:
        raise InputDomainError("beta must be nonzero")
    lo, hi = data_range
    if not lo < hi:
        raise InputDomainError(f"data_range must be increasing, got {data_range}")
    # pre-activation for alpha*(1,1) is 2*alpha*beta + b; keep it >= 1
    b_enc = 1.0 - min(2.0 * beta * lo, 2.0 * beta * hi)
    w_enc = np.array([[beta], [beta]])
    w_dec = np.array([[1.0, 1.0]]) / (2.0 * beta)
    b_dec = -b_enc * np.array([1.0, 1.0]) / (2.0 * beta)
    return AutoencoderModel(
        encoder=[DenseLayer(w_enc, np.array([b_enc]), "relu")],
        decoder=[DenseLayer(w_dec, b_dec, "linear")],
        input_shape=(2,),
        latent_dim=1,
    )


def relu_toy_adversary(
    beta: float, data_range: tuple[float, float], c: float
) -> AdversaryResult:
    """Adversary a = c*(1,1) against the constructed diagonal toy network.

    The distance is measured against the continuous diagonal segment the
    training family occupies, so it is a floor for any sampled dataset from
    that range. A c inside the range yields zero loss too; the result is
    annotated as in-distribution rather than rejected.
    """
    model = build_relu_toy(beta, data_range)
    lo, hi = data_range
    a = np.array([c, c], dtype=np.float64)
    loss = float(sample_scores(model, a[None, :])[0])
    gap = max(lo - c, c - hi, 0.0)
    dist = float(gap * np.sqrt(2.0))
    z = encode_batch(model, a)
    annotation = "in_distribution" if lo <= c <= hi else None
    return AdversaryResult(
        a=a,
        loss=loss,
        min_dist_to_train=dist,
        delta_requested=0.0,
        method="relu_toy",
        latent_point=z,
        annotation=annotation,
    )


def latent_decode_adversary(model: AutoencoderModel | PcaModel, z, x_train) -> AdversaryResult:
    """Decode a latent point and measure how the detector treats the result.

    The loss is the reconstruction loss of the decoded sample against its
    own reconstruction (decode, re-encode, decode), which is exactly the
    score the detector would assign the decoded sample.
    """
    zv = numlin.as_vector(z, "latent point", size=model.latent_dim)
    xm = numlin.as_matrix(x_train, "training data")
    return _measured(model, xm, decode_batch(model, zv), 0.0, "latent_decode", latent_point=zv)


def _push_off(xm: np.ndarray, rows: np.ndarray, delta: float) -> np.ndarray:
    """A copy of rows in which each row within delta of its nearest training
    row is pushed radially off that row, to the first point of the ray that
    is farther than delta from every training row.

    The rows to push walk their rays together, a chunk of rows at a time
    (`numlin.row_chunks`); each comes out with the bits of a walk alone.
    """
    near_idx, near_dist = numlin.nearest_row(xm, rows)
    out = rows.copy()
    push = np.flatnonzero(near_dist <= delta)
    for c in numlin.row_chunks(push.size, xm.size):
        k = push[c]
        base = xm[near_idx[k]]
        direction = rows[k] - base
        # sqrt(dot(d, d)) per row, the bits of np.linalg.norm(d)
        norm = np.sqrt(np.matmul(direction[:, None, :], direction[:, :, None])[:, 0, 0])
        on_row = norm == 0.0  # such a row sits on a training row; any ray leads out
        if on_row.any():
            direction[on_row] = 0.0
            direction[on_row, 0] = 1.0
            norm[on_row] = 1.0
        t = _ray_exit(xm, base, direction / norm[:, None], delta)
        out[k] = base + t[:, None] * direction / norm[:, None]
    return out


def _ray_exit(xm: np.ndarray, base: np.ndarray, u: np.ndarray, delta: float) -> np.ndarray:
    """For each ray base + t * u (unit u), the first t past delta at which
    the ray is farther than delta from every training row.

    The ray is within delta of row j for t in [lo_j, hi_j] = b_j -/+
    sqrt(s_j), and nowhere when s_j < 0 (lo_j and hi_j are then NaN and
    compare false). t moves past the intervals that cover it until none
    does, each time just outside so that the recomputed distance clears
    delta. The (k, m, n) scratch is freed on return.
    """
    w = xm - base[:, None, :]
    b = np.matmul(w, u[:, :, None])[:, :, 0]
    s = b * b - (w * w).sum(axis=2) + delta * delta
    with np.errstate(invalid="ignore"):
        root = np.sqrt(s)
    lo, hi = b - root, b + root
    t0 = delta * (1.0 + 1e-9)
    t = np.full(base.shape[0], t0)
    moving = np.arange(base.shape[0])
    covering = (lo <= t0) & (hi >= t0)
    while True:
        still = covering.any(axis=1)
        moving, covering = moving[still], covering[still]
        if not moving.size:
            return t
        t[moving] = np.where(covering, hi[moving], -np.inf).max(axis=1) * (1.0 + 1e-9)
        covering = (lo[moving] <= t[moving, None]) & (hi[moving] >= t[moving, None])


def pgd_adversary(
    model: AutoencoderModel,
    x,
    delta: float,
    steps: int = 500,
    step_size: float = 1e-2,
    restarts: int = 10,
    seed: int = 0,
) -> AdversaryResult:
    """Projected gradient search for a low-loss input at distance > delta.

    Each restart starts uniformly inside the training bounding box inflated
    to twice its extent. All restarts step as one batch down the gradient of
    the self-reconstruction loss; after every step the restarts within
    delta of their nearest training row are pushed radially off it until no
    row is within delta, all in one pass (`_push_off`). A restart whose step
    turns non-finite stops at its last finite point with status "diverged".
    delta must be positive with a finite square, since the push-off squares
    it.

    The best restart by (independently re-evaluated) loss wins among those
    that did not diverge and lie farther than delta from every training row
    by the scan that reports min_dist_to_train; ties go to the lowest index.
    With steps=0 that is the best such raw start. If no restart qualifies,
    the lowest-loss one comes back with search_failed=True and diagnostics
    instead of raising.
    """
    _require_delta(delta)
    if not (step_size > 0 and math.isfinite(step_size)):
        raise InputDomainError(f"step_size must be finite and > 0, got {step_size}")
    if steps < 0 or restarts < 1:
        raise InputDomainError("steps must be >= 0 and restarts >= 1")
    xm = numlin.as_matrix(x, "training data", cols=model.input_dim)
    lo = xm.min(axis=0)
    hi = xm.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    a = np.empty((restarts, xm.shape[1]))
    for r in range(restarts):
        rng = Rng(derive_seed(seed, r))
        a[r] = [rng.uniform(c - 2.0 * h, c + 2.0 * h) for c, h in zip(center, half)]

    live = np.ones(restarts, dtype=bool)
    for _ in range(steps):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            _, grad = input_gradient(model, a[idx])
            stepped = a[idx] - step_size * grad
            finite = np.all(np.isfinite(stepped), axis=1)
            live[idx[~finite]] = False
            if finite.any():
                a[idx[finite]] = _push_off(xm, stepped[finite], delta)
    statuses = ["ok" if ok else "diverged" for ok in live]

    with np.errstate(over="ignore", invalid="ignore"):
        losses = sample_scores(model, a)
        dists = numlin.pairwise_min_distance(xm, a)
    losses[~(live & np.isfinite(losses))] = np.inf
    feasible = np.isfinite(losses) & (dists > delta)
    if not feasible.any():
        best = int(np.argmin(losses))
        return _measured(
            model, xm, a[best], delta, "pgd", search_failed=True,
            diagnostics={"statuses": statuses, "steps": steps, "restarts": restarts},
        )
    best = int(np.argmin(np.where(feasible, losses, np.inf)))
    return _measured(
        model, xm, a[best], delta, "pgd", latent_point=encode_batch(model, a[best]),
        diagnostics={"restart": best, "statuses": statuses},
    )


def write_pgm(a, image_hw: tuple[int, int], path) -> None:
    """Dump a flat [0,1] image vector as a binary 8-bit PGM for inspection."""
    h, w = image_hw
    v = numlin.as_vector(a, "image", size=h * w)
    pixels = np.clip(np.rint(v * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
