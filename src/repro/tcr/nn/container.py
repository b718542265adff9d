"""Module container: Sequential."""

from __future__ import annotations

from repro.tcr.nn.module import Module
from repro.tcr.tensor import Tensor


class Sequential(Module):
    """Chain modules; forward feeds each output into the next module."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, module in enumerate(modules):
            self.register_module(str(i), module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x
