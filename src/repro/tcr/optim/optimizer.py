"""Optimizer base class."""

from __future__ import annotations

from typing import Iterable, List

from repro.errors import TdpError
from repro.tcr.tensor import Tensor


class Optimizer:
    """Holds a parameter list and per-parameter state dictionaries."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise TdpError("optimizer got an empty parameter list")
        for p in self.params:
            if not isinstance(p, Tensor):
                raise TdpError(f"optimizer parameters must be tensors, got {type(p).__name__}")
        if lr <= 0:
            raise TdpError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.state: List[dict] = [{} for _ in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
