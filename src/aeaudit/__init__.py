"""aeaudit: reconstruction-loss anomaly detectors and their blind spots.

Train PCA, linear, MLP, and convolutional autoencoder detectors; score data
by reconstruction loss; then audit the detectors by constructing or
searching for adversarial anomalies: inputs far from all training data that
nevertheless reconstruct almost perfectly.
"""

__version__ = "0.1.0"

from .adversary import (
    AdversaryResult,
    construct_linear_ae_adversary,
    construct_pca_adversary,
    latent_decode_adversary,
    optimal_biases,
    pgd_adversary,
    relu_toy_adversary,
)
from .anomaly import ScoreTable, Verdict, is_undetected, score
from .audit import AuditGrid, Region, extract_regions, scan_input_space, scan_latent_space
from .datagen import Dataset, SyntheticSpec, generate, load_csv, load_mnist
from .models import (
    AutoencoderModel,
    PcaModel,
    build_conv_autoencoder,
    build_mlp_autoencoder,
    load_model,
    pca_fit,
    save_model,
)
from .numlin import pairwise_min_distance, principal_angles, svd
from .rng import Rng
from .training import TrainConfig, TrainReport, train

__all__ = [
    "AdversaryResult",
    "AuditGrid",
    "AutoencoderModel",
    "Dataset",
    "PcaModel",
    "Region",
    "Rng",
    "ScoreTable",
    "SyntheticSpec",
    "TrainConfig",
    "TrainReport",
    "Verdict",
    "build_conv_autoencoder",
    "build_mlp_autoencoder",
    "construct_linear_ae_adversary",
    "construct_pca_adversary",
    "extract_regions",
    "generate",
    "is_undetected",
    "latent_decode_adversary",
    "load_csv",
    "load_mnist",
    "load_model",
    "optimal_biases",
    "pairwise_min_distance",
    "pca_fit",
    "pgd_adversary",
    "principal_angles",
    "relu_toy_adversary",
    "save_model",
    "scan_input_space",
    "scan_latent_space",
    "score",
    "svd",
    "train",
]
