"""Seeded random number generation for the tensor runtime.

A single module-level generator keeps every experiment reproducible:
``manual_seed`` resets it exactly like ``torch.manual_seed``.
"""

from __future__ import annotations

import numpy as np

from repro.tcr.tensor import Tensor

_generator = np.random.default_rng(0)


def manual_seed(seed: int) -> None:
    """Reset the global generator (mirrors torch.manual_seed)."""
    global _generator
    _generator = np.random.default_rng(seed)


def get_generator() -> np.random.Generator:
    return _generator


def fork_generator(seed: int) -> np.random.Generator:
    """Return an independent generator without disturbing the global one."""
    return np.random.default_rng(seed)


def randn(*shape, device=None, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    data = _generator.standard_normal(shape).astype(np.float32)
    return Tensor(data, requires_grad=requires_grad, device=device)
