"""Neural-network building blocks on top of the tensor runtime."""

from repro.tcr.nn.container import Sequential
from repro.tcr.nn.layers import (
    AdaptiveAvgPool2d,
    Conv2d,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.tcr.nn.loss import CrossEntropyLoss, MSELoss
from repro.tcr.nn.module import Module, Parameter
from repro.tcr.nn.norm import BatchNorm2d

__all__ = [
    "AdaptiveAvgPool2d", "BatchNorm2d", "Conv2d", "CrossEntropyLoss",
    "Flatten", "Identity", "Linear", "MaxPool2d", "Module", "MSELoss",
    "Parameter", "ReLU", "Sequential",
]
