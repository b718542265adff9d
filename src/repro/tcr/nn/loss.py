"""Loss functions used by the paper's training loops."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tcr import ops
from repro.tcr.nn.module import Module
from repro.tcr.tensor import Tensor


def _reduce(value: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return ops.mean(value)
    if reduction == "sum":
        return ops.sum(value)
    if reduction == "none":
        return value
    raise ValueError(f"unknown reduction {reduction!r}")


class MSELoss(Module):
    """Mean squared error (Listing 5 computes this inline)."""

    def __init__(self, reduction: str = "mean"):
        super().__init__()
        self.reduction = reduction

    def forward(self, input: Tensor, target: Tensor) -> Tensor:
        if input.shape != target.shape:
            raise ShapeError(f"MSELoss shapes differ: {input.shape} vs {target.shape}")
        diff = input - target
        return _reduce(diff * diff, self.reduction)


class NLLLoss(Module):
    """Negative log-likelihood over log-probabilities and int64 targets."""

    def __init__(self, reduction: str = "mean"):
        super().__init__()
        self.reduction = reduction

    def forward(self, log_probs: Tensor, target: Tensor) -> Tensor:
        if log_probs.ndim != 2:
            raise ShapeError("NLLLoss expects (N, C) log-probabilities")
        n = log_probs.shape[0]
        idx = target.data.astype(np.int64)
        picked = ops.getitem(log_probs, (np.arange(n), idx))
        return _reduce(-picked, self.reduction)


class CrossEntropyLoss(Module):
    """Softmax cross-entropy over raw logits and int64 class targets."""

    def __init__(self, reduction: str = "mean"):
        super().__init__()
        self.reduction = reduction
        self._nll = NLLLoss(reduction=reduction)

    def forward(self, logits: Tensor, target: Tensor) -> Tensor:
        return self._nll(ops.log_softmax(logits, dim=-1), target)
