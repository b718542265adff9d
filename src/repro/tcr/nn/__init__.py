"""Neural-network building blocks on top of the tensor runtime."""

from repro.tcr.nn.container import ModuleList, Sequential
from repro.tcr.nn.layers import (
    AdaptiveAvgPool2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.tcr.nn.loss import (
    BCEWithLogitsLoss,
    CrossEntropyLoss,
    KLDivLoss,
    L1Loss,
    MSELoss,
)
from repro.tcr.nn.module import Module, Parameter
from repro.tcr.nn.norm import BatchNorm2d, LayerNorm

__all__ = [
    "AdaptiveAvgPool2d", "BatchNorm2d", "BCEWithLogitsLoss", "Conv2d",
    "CrossEntropyLoss", "Dropout", "Embedding", "Flatten", "Identity",
    "KLDivLoss", "L1Loss", "LayerNorm", "Linear", "MaxPool2d", "Module",
    "ModuleList", "MSELoss", "Parameter", "ReLU", "Sequential",
]
