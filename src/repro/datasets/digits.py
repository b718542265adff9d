"""Synthetic handwritten-style digits (the MNIST substitute).

Each sample rasterises a digit glyph with random geometric and photometric
perturbations — scale, translation, shear, stroke thickening, blur, noise —
giving visually separable classes with substantial intra-class variation,
which is the property the MNISTGrid learning experiments rely on.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.datasets.fonts import glyph

IMAGE_SIZE = 28
SMALL, LARGE = 0, 1
SIZE_NAMES = ("Small", "Large")
# Target glyph heights (pixels) for the two size classes.
_SIZE_RANGES = {SMALL: (10, 14), LARGE: (20, 26)}


def _resize_nearest(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    rows = (np.arange(out_h) * image.shape[0] / out_h).astype(int)
    cols = (np.arange(out_w) * image.shape[1] / out_w).astype(int)
    return image[rows][:, cols]


def _shear(image: np.ndarray, amount: float) -> np.ndarray:
    h, w = image.shape
    out = np.zeros_like(image)
    shifts = (amount * (np.arange(h) - h / 2)).astype(int)
    for r in range(h):
        out[r] = np.roll(image[r], shifts[r])
    return out


def _blur3(image: np.ndarray) -> np.ndarray:
    padded = np.pad(image, 1)
    acc = np.zeros_like(image)
    for dr in (0, 1, 2):
        for dc in (0, 1, 2):
            acc += padded[dr:dr + image.shape[0], dc:dc + image.shape[1]]
    return acc / 9.0


def _thicken(image: np.ndarray) -> np.ndarray:
    padded = np.pad(image, 1)
    out = image.copy()
    for dr, dc in ((0, 1), (2, 1), (1, 0), (1, 2)):
        out = np.maximum(out, padded[dr:dr + image.shape[0], dc:dc + image.shape[1]])
    return out


def render_digit(digit: int, size_class: int, rng: np.random.Generator,
                 image_size: int = IMAGE_SIZE) -> np.ndarray:
    """One (image_size, image_size) float image in [0, 1]."""
    lo, hi = _SIZE_RANGES[size_class]
    target_h = int(rng.integers(lo, hi + 1))
    target_w = max(4, int(target_h * 5 / 7 * rng.uniform(0.85, 1.15)))
    base = glyph(str(digit))
    img = _resize_nearest(base, target_h, target_w)
    if rng.random() < 0.5:
        img = _thicken(img)
    img = _shear(img, rng.uniform(-0.15, 0.15))
    canvas = np.zeros((image_size, image_size), dtype=np.float32)
    margin_r = image_size - target_h
    margin_c = image_size - img.shape[1]
    top = int(rng.integers(0, max(margin_r, 1)))
    left = int(rng.integers(0, max(margin_c, 1)))
    canvas[top:top + target_h, left:left + img.shape[1]] = img
    canvas = _blur3(canvas)
    canvas *= rng.uniform(0.8, 1.0)
    canvas += rng.normal(0.0, 0.05, canvas.shape).astype(np.float32)
    return np.clip(canvas, 0.0, 1.0).astype(np.float32)


@dataclasses.dataclass
class DigitDataset:
    """images: (n, 1, 28, 28); digits/sizes: (n,) int labels."""
    images: np.ndarray
    digits: np.ndarray
    sizes: np.ndarray


def make_digits(n: int, rng: Optional[np.random.Generator] = None,
                size_class: Optional[int] = None) -> DigitDataset:
    """Sample ``n`` digits uniformly over classes (and sizes unless fixed)."""
    rng = rng or np.random.default_rng(0)
    digits = rng.integers(0, 10, size=n)
    if size_class is None:
        sizes = rng.integers(0, 2, size=n)
    else:
        sizes = np.full(n, size_class, dtype=np.int64)
    images = np.stack([
        render_digit(int(d), int(s), rng)[None, :, :]
        for d, s in zip(digits, sizes)
    ])
    return DigitDataset(images.astype(np.float32), digits.astype(np.int64),
                        sizes.astype(np.int64))
