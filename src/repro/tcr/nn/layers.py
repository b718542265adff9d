"""Core layers: Linear, Conv2d, pooling, ReLU, flatten, identity."""

from __future__ import annotations

import math

import numpy as np

from repro.tcr import ops
from repro.tcr.nn import init
from repro.tcr.nn.module import Module, Parameter
from repro.tcr.tensor import Tensor


class Linear(Module):
    """Affine map ``y = x W^T + b`` with kaiming-uniform initialisation."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features), dtype=np.float32))
        init.kaiming_uniform_(self.weight)
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias = Parameter(np.empty(out_features, dtype=np.float32))
            init.uniform_(self.bias, -bound, bound)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """2-d convolution over (N, C, H, W) inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size,
                 stride=1, padding=0, bias: bool = True):
        super().__init__()
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            np.empty((out_channels, in_channels, kh, kw), dtype=np.float32)
        )
        init.kaiming_uniform_(self.weight)
        if bias:
            bound = 1.0 / math.sqrt(in_channels * kh * kw)
            self.bias = Parameter(np.empty(out_channels, dtype=np.float32))
            init.uniform_(self.bias, -bound, bound)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class MaxPool2d(Module):
    def __init__(self, kernel_size, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return ops.max_pool2d(x, self.kernel_size, self.stride)


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: int = 1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return ops.adaptive_avg_pool2d(x, self.output_size)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class Flatten(Module):
    def __init__(self, start_dim: int = 1, end_dim: int = -1):
        super().__init__()
        self.start_dim = start_dim
        self.end_dim = end_dim

    def forward(self, x: Tensor) -> Tensor:
        return ops.flatten(x, self.start_dim, self.end_dim)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
