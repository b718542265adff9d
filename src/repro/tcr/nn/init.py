"""Weight initialisation schemes (kaiming-uniform weights, uniform biases)."""

from __future__ import annotations

import math

from repro.tcr.random import get_generator
from repro.tcr.tensor import Tensor


def _fan_in(tensor: Tensor) -> int:
    shape = tensor.shape
    if len(shape) < 2:
        return shape[0]
    receptive = 1
    for n in shape[2:]:
        receptive *= n
    return shape[1] * receptive


def uniform_(tensor: Tensor, low: float = 0.0, high: float = 1.0) -> Tensor:
    tensor.data = get_generator().uniform(low, high, tensor.shape).astype(tensor.dtype)
    return tensor


def kaiming_uniform_(tensor: Tensor, a: float = math.sqrt(5)) -> Tensor:
    gain = math.sqrt(2.0 / (1 + a * a))
    bound = gain * math.sqrt(3.0 / _fan_in(tensor))
    return uniform_(tensor, -bound, bound)
