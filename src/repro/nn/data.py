"""Synthetic MNIST substitute (no network access to the real dataset).

Generates 28 x 28 grey-level handwritten-style digits from built-in 7 x 5
glyph bitmaps, randomized per sample: sub-pixel scaling, rotation, stroke
thickness, placement jitter, intensity variation and sensor noise.  Images
are uint8 in [0, 255] with 10 balanced classes, matching the input contract
of every pipeline in this repository.

The substitution is sound for the paper's experiments because they measure
(a) inference *time*, which depends only on tensor shapes, and (b) accuracy
*equality* between the plaintext, pure-HE and hybrid pipelines on identical
inputs -- a dataset-independent property.  See DESIGN.md Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_GLYPHS = {
    0: ["01110", "10001", "10001", "10001", "10001", "10001", "01110"],
    1: ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    2: ["01110", "10001", "00001", "00110", "01000", "10000", "11111"],
    3: ["11110", "00001", "00001", "01110", "00001", "00001", "11110"],
    4: ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    5: ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    6: ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    7: ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    8: ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    9: ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
}

IMAGE_SIZE = 28
NUM_CLASSES = 10


def _glyph_array(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit]
    return np.array([[int(c) for c in row] for row in rows], dtype=np.float64)


def render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    """One randomized 28 x 28 uint8 image of ``digit``."""
    glyph = _glyph_array(digit)
    # Random stroke thickness before upscaling.
    if rng.random() < 0.35:
        glyph = ndimage.binary_dilation(glyph > 0).astype(np.float64)
    scale = rng.uniform(2.4, 3.2)
    canvas = ndimage.zoom(glyph, scale, order=1)
    canvas = ndimage.rotate(canvas, rng.uniform(-12.0, 12.0), reshape=False, order=1)
    canvas = ndimage.gaussian_filter(canvas, sigma=rng.uniform(0.4, 0.9))
    canvas = np.clip(canvas, 0.0, 1.0)

    image = np.zeros((IMAGE_SIZE, IMAGE_SIZE), dtype=np.float64)
    h, w = canvas.shape
    h, w = min(h, IMAGE_SIZE), min(w, IMAGE_SIZE)
    max_r = IMAGE_SIZE - h
    max_c = IMAGE_SIZE - w
    r = int(rng.integers(max_r // 3, 2 * max_r // 3 + 1)) if max_r > 0 else 0
    c = int(rng.integers(max_c // 3, 2 * max_c // 3 + 1)) if max_c > 0 else 0
    image[r : r + h, c : c + w] = canvas[:h, :w]

    intensity = rng.uniform(0.75, 1.0)
    image = image * intensity + rng.normal(0.0, 0.02, size=image.shape)
    return (np.clip(image, 0.0, 1.0) * 255).astype(np.uint8)


@dataclass
class Dataset:
    """Image/label arrays with the usual split accessors.

    Attributes:
        train_images: uint8 array ``(N, 1, 28, 28)``.
        train_labels: int64 array ``(N,)``.
        test_images / test_labels: the held-out split.
    """

    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray

    def train_float(self) -> np.ndarray:
        """Training images normalized to [0, 1] float64."""
        return self.train_images.astype(np.float64) / 255.0

    def test_float(self) -> np.ndarray:
        return self.test_images.astype(np.float64) / 255.0


def synthetic_mnist(
    train_size: int = 2000, test_size: int = 400, seed: int = 2021
) -> Dataset:
    """Generate a balanced synthetic MNIST-style dataset.

    Deterministic for a given ``(train_size, test_size, seed)`` triple.
    """
    rng = np.random.default_rng(seed)
    total = train_size + test_size
    images = np.empty((total, 1, IMAGE_SIZE, IMAGE_SIZE), dtype=np.uint8)
    labels = (np.arange(total) % NUM_CLASSES).astype(np.int64)
    rng.shuffle(labels)
    for i in range(total):
        images[i, 0] = render_digit(int(labels[i]), rng)
    return Dataset(
        train_images=images[:train_size],
        train_labels=labels[:train_size],
        test_images=images[train_size:],
        test_labels=labels[train_size:],
    )
