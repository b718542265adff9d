"""Normalisation layer: BatchNorm2d (ResNet)."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tcr import ops
from repro.tcr.autograd import no_grad
from repro.tcr.nn.module import Module, Parameter
from repro.tcr.tensor import Tensor


class BatchNorm2d(Module):
    """Batch normalisation over (N, C, H, W) with running statistics."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", Tensor(np.zeros(num_features, dtype=np.float32)))
        self.register_buffer("running_var", Tensor(np.ones(num_features, dtype=np.float32)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ShapeError(f"BatchNorm2d expects 4-d input, got {x.shape}")
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm2d configured for {self.num_features} channels, got {x.shape[1]}"
            )
        if self.training:
            mean = ops.mean(x, dim=(0, 2, 3), keepdim=True)
            var = ops.var(x, dim=(0, 2, 3), keepdim=True, unbiased=False)
            with no_grad():
                m = self.momentum
                self.running_mean.data = (
                    (1 - m) * self.running_mean.data + m * mean.data.reshape(-1)
                )
                n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
                unbias = n / max(n - 1, 1)
                self.running_var.data = (
                    (1 - m) * self.running_var.data + m * var.data.reshape(-1) * unbias
                )
        else:
            mean = ops.reshape(self.running_mean, (1, -1, 1, 1))
            var = ops.reshape(self.running_var, (1, -1, 1, 1))
        inv = ops.div(1.0, ops.sqrt(var + self.eps))
        normed = (x - mean) * inv
        w = ops.reshape(self.weight, (1, -1, 1, 1))
        b = ops.reshape(self.bias, (1, -1, 1, 1))
        return normed * w + b
