"""``Module``/``Parameter`` base classes (the torch.nn.Module analogue).

Compiled TDP queries are themselves Modules (paper §2: "the output of query
compilation is a PyTorch model"), so everything trainable in the system —
UDF networks, soft operators, whole queries — shares this one abstraction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import TdpError
from repro.tcr.tensor import Tensor


class Parameter(Tensor):
    """A Tensor registered as a trainable module attribute."""

    def __init__(self, data, requires_grad: bool = True, device=None):
        if isinstance(data, Tensor):
            data = data.data
        super().__init__(data, requires_grad=requires_grad, device=device)


class Module:
    """Base class for neural network modules and compiled query operators."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
            self._buffers.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, tensor: Optional[Tensor]) -> None:
        """Track non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = tensor
        object.__setattr__(self, name, tensor)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self, recurse: bool = True) -> Iterator[Parameter]:
        for _, param in self.named_parameters(recurse=recurse):
            yield param

    def named_parameters(self, prefix: str = "", recurse: bool = True
                         ) -> Iterator[Tuple[str, Parameter]]:
        seen = set()
        for name, param in self._parameters.items():
            if id(param) not in seen:
                seen.add(id(param))
                yield (prefix + name, param)
        if recurse:
            for mod_name, module in self._modules.items():
                sub_prefix = f"{prefix}{mod_name}."
                for name, param in module.named_parameters(prefix=sub_prefix):
                    if id(param) not in seen:
                        seen.add(id(param))
                        yield (name, param)

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, buf in self._buffers.items():
            yield (prefix + name, buf)
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    # ------------------------------------------------------------------
    # Train/eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters(prefix=prefix):
            state[name] = param.data.copy()
        for name, buf in self.named_buffers(prefix=prefix):
            if buf is not None:
                state[name] = buf.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        targets = {**own_buffers, **own_params}
        missing = [k for k in targets if k not in state]
        unexpected = [k for k in state if k not in targets]
        if strict and (missing or unexpected):
            raise TdpError(
                f"state_dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for key, value in state.items():
            target = targets.get(key)
            if target is None:
                continue
            if target.data.shape != value.shape:
                raise TdpError(
                    f"shape mismatch for {key}: {target.data.shape} vs {value.shape}"
                )
            target.data = np.asarray(value, dtype=target.data.dtype).copy()

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
