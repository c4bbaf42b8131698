"""Shared fixtures.

The image-data fixture prefers real MNIST IDX files when MNIST_DIR points
at them, then scikit-learn's bundled 8x8 handwritten digits, and otherwise
draws deterministic 8x8 digit-like images (rings for "0", slanted bars for
"1"). The last two are written through the same IDX format, so the loader
and the full image pipeline are exercised either way.

Property tests run under a derandomized hypothesis profile that keeps no
example database, and hypothesis's remaining cache goes to a temporary
directory, so the suite is deterministic and writes nothing into the tree.
"""

import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from aeaudit.datagen import save_idx
from aeaudit.rng import Rng

settings.register_profile("aeaudit", derandomize=True, deadline=None, database=None)
settings.load_profile("aeaudit")
# hypothesis caches constants from local source at collection time; keep
# that cache out of the working tree (removed when the interpreter exits)
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="aeaudit-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

MNIST_IMAGE_NAMES = ("train-images-idx3-ubyte", "train-images.idx3-ubyte")
MNIST_LABEL_NAMES = ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte")


def _find_real_mnist():
    root = os.environ.get("MNIST_DIR")
    if not root:
        return None
    rootp = Path(root)
    images = next((rootp / n for n in MNIST_IMAGE_NAMES if (rootp / n).exists()), None)
    labels = next((rootp / n for n in MNIST_LABEL_NAMES if (rootp / n).exists()), None)
    if images and labels:
        return images, labels
    return None


def _sklearn_digits():
    try:
        from sklearn.datasets import load_digits
    except ImportError:
        return None
    d = load_digits()
    return np.rint(d.images / 16.0 * 255.0).astype(np.uint8), d.target.astype(np.uint8)


def _draw_digits(per_digit: int, side: int = 8):
    """Digit-like uint8 images, labels alternating 0, 1.

    A "0" is an elliptic ring, a "1" a slanted bar; centre, size, slant and
    stroke width are drawn from `Rng(8)` in that order, with lengths given
    as fractions of the side. Strokes are anti-aliased over one pixel.
    """
    rng = Rng(8)
    yy, xx = np.mgrid[0:side, 0:side] + 0.5
    images, labels = [], []
    for _ in range(per_digit):
        for digit in (0, 1):
            cy = side * (0.5 + rng.uniform(-0.07, 0.07))
            cx = side * (0.5 + rng.uniform(-0.07, 0.07))
            if digit == 0:
                ry = side * rng.uniform(0.25, 0.33)
                rx = ry * rng.uniform(0.6, 0.85)
                width = side * rng.uniform(0.06, 0.1)
                dist = np.abs(np.hypot((yy - cy) / ry, (xx - cx) / rx) - 1.0) * min(rx, ry)
            else:
                slant = rng.uniform(-0.35, 0.35)
                half = side * rng.uniform(0.28, 0.36)
                width = side * rng.uniform(0.05, 0.085)
                uy, ux = math.cos(slant), math.sin(slant)
                along = np.clip((yy - cy) * uy + (xx - cx) * ux, -half, half)
                dist = np.hypot(yy - cy - along * uy, xx - cx - along * ux)
            ink = np.clip(1.0 - (dist - width / 2.0), 0.0, 1.0)
            images.append(np.rint(ink * 255.0).astype(np.uint8))
            labels.append(digit)
    return np.stack(images), np.array(labels, dtype=np.uint8)


@pytest.fixture(scope="session")
def digit_idx_files(tmp_path_factory):
    """(images_path, labels_path, side) for a digit corpus: real MNIST from
    MNIST_DIR, else scikit-learn's 8x8 digits, else `_draw_digits(180)`."""
    real = _find_real_mnist()
    if real is not None:
        return real[0], real[1], 28
    images, labels = _sklearn_digits() or _draw_digits(180)
    root = tmp_path_factory.mktemp("digits")
    images_path = root / "digits-images.idx"
    labels_path = root / "digits-labels.idx"
    save_idx(images, labels, images_path, labels_path)
    return images_path, labels_path, 8
