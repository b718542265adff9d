"""Synthetic Adult-Income-like census data (paper §5.3).

The real 1994 census extract is not shipped in this offline environment, so
we generate census-shaped records whose binary income label follows a noisy
ground-truth logistic model over the numeric features. What the LLP
experiments measure — how aggregation granularity dilutes instance-level
supervision — depends only on the feature/label joint being learnable by a
linear classifier, which this generator guarantees by construction.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.storage.frame import DataFrame

LABEL_COL = "income_gt_50k"

# Ground-truth logistic weights over standardised features.
_TRUE_WEIGHTS = np.array([0.9, 1.3, 0.8, 1.1, -0.6], dtype=np.float64)
_TRUE_BIAS = -0.4
_LABEL_NOISE = 0.08          # fraction of labels flipped (keeps Bayes error > 0)


@dataclasses.dataclass
class AdultDataset:
    frame: DataFrame
    features: np.ndarray     # standardised (n, 5) float32
    labels: np.ndarray       # (n,) int64 in {0, 1}

    def __len__(self) -> int:
        return self.labels.shape[0]


def make_adult(n: int, rng: Optional[np.random.Generator] = None) -> AdultDataset:
    rng = rng or np.random.default_rng(0)
    age = rng.normal(38.5, 13.0, n).clip(17, 90)
    education = rng.normal(10.0, 2.5, n).clip(1, 16).round()
    hours = rng.normal(40.0, 12.0, n).clip(1, 99)
    # Capital gains/losses are zero-inflated and heavy-tailed, as in the census.
    gain = np.where(rng.random(n) < 0.08, rng.exponential(12000, n), 0.0).clip(0, 99999)
    loss = np.where(rng.random(n) < 0.05, rng.exponential(1800, n), 0.0).clip(0, 4356)
    raw = np.stack([age, education, hours, gain, loss], axis=1)

    standardized = _standardize(raw)
    logits = standardized @ _TRUE_WEIGHTS + _TRUE_BIAS
    probs = 1.0 / (1.0 + np.exp(-logits))
    labels = (rng.random(n) < probs).astype(np.int64)
    flips = rng.random(n) < _LABEL_NOISE
    labels[flips] = 1 - labels[flips]

    frame = DataFrame({
        "age": age.astype(np.float32),
        "education_num": education.astype(np.float32),
        "hours_per_week": hours.astype(np.float32),
        "capital_gain": gain.astype(np.float32),
        "capital_loss": loss.astype(np.float32),
        LABEL_COL: labels,
    })
    return AdultDataset(frame, standardized.astype(np.float32), labels)


def _standardize(raw: np.ndarray) -> np.ndarray:
    mean = raw.mean(axis=0, keepdims=True)
    std = raw.std(axis=0, keepdims=True)
    return (raw - mean) / np.maximum(std, 1e-6)


def train_test_split(dataset: AdultDataset, test_fraction: float = 0.2,
                     rng: Optional[np.random.Generator] = None
                     ) -> Tuple[Tuple[np.ndarray, np.ndarray],
                                Tuple[np.ndarray, np.ndarray]]:
    rng = rng or np.random.default_rng(1)
    n = len(dataset)
    order = rng.permutation(n)
    cut = int(n * (1.0 - test_fraction))
    train_idx, test_idx = order[:cut], order[cut:]
    return ((dataset.features[train_idx], dataset.labels[train_idx]),
            (dataset.features[test_idx], dataset.labels[test_idx]))
