"""Constructing and searching for adversarial anomalies.

An adversarial anomaly is an input far from every training sample (minimum
Euclidean distance above a requested delta) that a trained model still
reconstructs with near-zero loss. For PCA and converged linear autoencoders
they can be written down in closed form: any point of the model's
reconstruction-invariant affine subspace works, and moving far enough from
the centroid of the training encodings buys an arbitrary distance floor.
For nonlinear models the module decodes latent-space candidates and runs a
projected gradient search.

Every result reports its loss from a fresh forward pass and its distance
from an exhaustive scan over the training rows; nothing is trusted from the
construction or search that produced it.
"""

from __future__ import annotations

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
        def clean(v: float):
            return float(v) if np.isfinite(v) else None

        return {
            "a": self.a.tolist(),
            "loss": clean(self.loss),
            "min_dist_to_train": clean(self.min_dist_to_train),
            "delta_requested": float(self.delta_requested),
            "method": self.method,
            "latent_point": None if self.latent_point is None else self.latent_point.tolist(),
            "annotation": self.annotation,
            "search_failed": self.search_failed,
            "diagnostics": self.diagnostics,
        }


def _latent_ray(encodings: np.ndarray, direction: np.ndarray | None):
    """Centroid, radius, and outward unit direction of a latent point cloud."""
    center = encodings.mean(axis=0)
    offsets = encodings - center
    norms = np.sqrt(np.sum(offsets * offsets, axis=1))
    radius = float(norms.max())
    if direction is not None:
        u = numlin.as_vector(direction, "direction")
        if u.shape[0] != encodings.shape[1]:
            raise InputDomainError(
                f"direction must have length {encodings.shape[1]}, got {u.shape[0]}"
            )
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            raise InputDomainError("direction must be nonzero")
        return center, radius, u / nu
    if radius == 0.0:
        u = np.zeros(encodings.shape[1])
        u[0] = 1.0
        return center, radius, u
    far = offsets[int(np.argmax(norms))]
    return center, radius, far / np.linalg.norm(far)


def construct_pca_adversary(
    model: PcaModel, x, delta: float, direction: np.ndarray | None = None
) -> AdversaryResult:
    """Closed-form zero-loss anomaly for a PCA model.

    Walks along the principal subspace: from the centroid of the training
    encodings, past the farthest encoding, by delta plus a safety margin.
    Decoding that latent point gives an exactly self-reconstructing input
    whose distance to every training row exceeds delta, because the latent
    offset is a lower bound on the input-space distance.
    """
    if delta <= 0:
        raise InputDomainError(f"delta must be > 0, got {delta}")
    xm = numlin.as_matrix(x, "training data")
    encodings = encode_batch(model, xm)
    center, radius, u = _latent_ray(encodings, direction)
    margin = max(1.0, 0.01 * radius)
    c = center + (radius + delta + margin) * u
    a = decode_batch(model, c)
    loss = float(sample_scores(model, a[None, :])[0])
    dist = numlin.pairwise_min_distance(xm, a)
    return AdversaryResult(
        a=a,
        loss=loss,
        min_dist_to_train=dist,
        delta_requested=delta,
        method="analytic_pca",
        latent_point=c,
    )


def linear_encoder_matrix(model: AutoencoderModel) -> np.ndarray:
    """Collapse an all-linear dense encoder (plus standardization) to one matrix."""
    w = None
    for layer in model.encoder:
        if not isinstance(layer, DenseLayer) or layer.activation != "linear":
            raise InputDomainError(
                "analytic linear construction needs an all-linear dense encoder"
            )
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
    angle_tol: float = 1e-2,
    direction: np.ndarray | None = None,
) -> AdversaryResult:
    """Closed-form anomaly for a trained linear autoencoder.

    First verifies the encoder span coincides with the top principal
    subspace of the training data (all principal angles below angle_tol);
    otherwise the zero-loss ray the construction relies on does not exist
    and the call refuses with the measured angles. The walk happens in the
    model's own latent space and the model's own decoder produces a; since
    that decoder is only approximately an isometry, the step length doubles
    until the recomputed input-space distance clears delta.
    """
    if delta <= 0:
        raise InputDomainError(f"delta must be > 0, got {delta}")
    xm = numlin.as_matrix(x, "training data")
    w_enc = linear_encoder_matrix(model)
    for layer in model.decoder:
        if not isinstance(layer, DenseLayer) or layer.activation != "linear":
            raise InputDomainError(
                "analytic linear construction needs an all-linear dense decoder"
            )
    d = model.latent_dim
    pca = pca_fit(xm, d)
    angles = numlin.principal_angles(w_enc, pca.basis)
    if float(angles.max()) >= angle_tol:
        raise SubspaceMismatchError(
            f"encoder span is {float(angles.max()):.3e} rad from the top-{d} "
            f"principal subspace (tolerance {angle_tol:.1e}); train the model "
            f"closer to the optimum or raise the tolerance",
            angles=angles,
        )

    encodings = encode_batch(model, xm)
    center, radius, u = _latent_ray(encodings, direction)
    margin = max(1.0, 0.01 * radius)
    t = radius + delta + margin
    for _ in range(80):
        c = center + t * u
        a = decode_batch(model, c)
        dist = numlin.pairwise_min_distance(xm, a)
        if dist > delta:
            loss = float(sample_scores(model, a[None, :])[0])
            return AdversaryResult(
                a=a,
                loss=loss,
                min_dist_to_train=dist,
                delta_requested=delta,
                method="analytic_linear",
                latent_point=c,
            )
        t *= 2.0
    raise NumericalError(
        "decoder collapsed the outward latent direction; could not reach the "
        f"requested distance {delta} (last distance {dist:.3g})"
    )


def optimal_biases(w_enc, w_dec, x) -> tuple[np.ndarray, np.ndarray]:
    """Loss-minimizing biases for fixed linear encoder/decoder weights.

    For the single-layer linear autoencoder xhat = (x @ w_enc + b_enc) @ w_dec
    + b_dec, the optimum is b_enc = -mean @ w_enc and b_dec = mean: together
    they center the data going in and restore the mean coming out.
    """
    we = numlin.as_matrix(w_enc, "encoder weight")
    wd = numlin.as_matrix(w_dec, "decoder weight")
    xm = numlin.as_matrix(x, "data")
    n, d = we.shape
    if wd.shape != (d, n):
        raise InputDomainError(f"decoder weight must be {(d, n)}, got {wd.shape}")
    if xm.shape[1] != n:
        raise InputDomainError(f"data must have {n} columns, got {xm.shape[1]}")
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


def latent_decode_adversary(model: AutoencoderModel, z, x_train) -> AdversaryResult:
    """Decode a latent point and measure how the detector treats the result.

    The loss is the reconstruction loss of the decoded sample against its
    own reconstruction (decode, re-encode, decode), which is exactly the
    score the detector would assign the decoded sample.
    """
    zv = numlin.as_vector(np.asarray(z, dtype=np.float64), "latent point")
    if zv.shape[0] != model.latent_dim:
        raise InputDomainError(f"latent point must have length {model.latent_dim}")
    xm = numlin.as_matrix(x_train, "training data")
    a = decode_batch(model, zv)
    loss = float(sample_scores(model, a[None, :])[0])
    dist = numlin.pairwise_min_distance(xm, a)
    return AdversaryResult(
        a=a,
        loss=loss,
        min_dist_to_train=dist,
        delta_requested=0.0,
        method="latent_decode",
        latent_point=zv,
    )


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
    to twice its extent, follows the gradient of the self-reconstruction
    loss, and after every step is pushed radially away from its nearest
    training row onto the delta sphere whenever it strays closer than
    delta. The best restart by (independently re-evaluated) loss wins; ties
    go to the lowest restart index. With steps=0 the best raw start is
    returned unchanged. If every restart diverges the result has
    search_failed=True and carries diagnostics instead of raising.
    """
    if delta <= 0:
        raise InputDomainError(f"delta must be > 0, got {delta}")
    if steps < 0 or restarts < 1:
        raise InputDomainError("steps must be >= 0 and restarts >= 1")
    xm = numlin.as_matrix(x, "training data")
    if xm.shape[1] != model.input_dim:
        raise InputDomainError(
            f"data has {xm.shape[1]} features, model expects {model.input_dim}"
        )
    lo = xm.min(axis=0)
    hi = xm.max(axis=0)
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    centroid = xm.mean(axis=0)
    # project just outside the sphere so the recomputed distance clears delta
    radius = delta * (1.0 + 1e-9)

    candidates: list[np.ndarray] = []
    statuses: list[str] = []
    for r in range(restarts):
        rng = Rng(derive_seed(seed, r))
        a = np.array([rng.uniform(c - 2.0 * h, c + 2.0 * h) for c, h in zip(center, half)])
        status = "ok"
        for _ in range(steps):
            with np.errstate(over="ignore", invalid="ignore"):
                _, grad = input_gradient(model, a)
            if not np.all(np.isfinite(grad)):
                status = "diverged"
                break
            a = a - step_size * grad
            if not np.all(np.isfinite(a)):
                status = "diverged"
                break
            near_idx, near_dist = numlin.nearest_row(xm, a)
            if near_dist < delta:
                direction = a - xm[near_idx]
                norm = float(np.linalg.norm(direction))
                if norm == 0.0:
                    direction = a - centroid
                    norm = float(np.linalg.norm(direction))
                if norm == 0.0:
                    direction = np.zeros_like(a)
                    direction[0] = 1.0
                    norm = 1.0
                a = xm[near_idx] + radius * direction / norm
        candidates.append(a)
        statuses.append(status)

    losses = []
    for a, status in zip(candidates, statuses):
        if status == "diverged":
            losses.append(float("inf"))
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(sample_scores(model, a[None, :])[0])
        losses.append(val if np.isfinite(val) else float("inf"))

    if all(not np.isfinite(v) for v in losses):
        return AdversaryResult(
            a=candidates[0],
            loss=float("inf"),
            min_dist_to_train=numlin.pairwise_min_distance(xm, candidates[0]),
            delta_requested=delta,
            method="pgd",
            search_failed=True,
            diagnostics={"statuses": statuses, "steps": steps, "restarts": restarts},
        )

    best = int(np.argmin(losses))
    a = candidates[best]
    loss = float(sample_scores(model, a[None, :])[0])
    dist = numlin.pairwise_min_distance(xm, a)
    return AdversaryResult(
        a=a,
        loss=loss,
        min_dist_to_train=dist,
        delta_requested=delta,
        method="pgd",
        latent_point=encode_batch(model, a),
        diagnostics={"restart": best, "statuses": statuses},
    )


def write_pgm(a, image_hw: tuple[int, int], path) -> None:
    """Dump a flat [0,1] image vector as a binary 8-bit PGM for inspection."""
    h, w = image_hw
    v = numlin.as_vector(np.asarray(a, dtype=np.float64), "image")
    if v.shape[0] != h * w:
        raise InputDomainError(f"image vector length {v.shape[0]} != {h}x{w}")
    pixels = np.clip(np.rint(v * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
