"""``repro.tcr`` — the Tensor Computation Runtime substrate.

A from-scratch stand-in for PyTorch: numpy-backed tensors with reverse-mode
autograd, a functional op library, ``nn`` modules, optimisers, einops-style
``rearrange`` and device tags (``cpu`` and a simulated ``cuda``: placement
only, both on numpy). The TDP engine (``repro.core``) compiles SQL to
programs over this runtime, exactly as the paper compiles SQL to PyTorch
programs. It holds what the engine, the applications and the
benchmarks run, not a general torch surface.
"""

from repro.tcr import nn, optim, ops
from repro.tcr.device import CPU, CUDA, as_device
from repro.tcr.random import fork_generator, manual_seed, randn
from repro.tcr.tensor import ones, tensor, zeros

__all__ = [
    "CPU", "CUDA", "as_device", "fork_generator", "manual_seed", "nn", "ones",
    "ops", "optim", "randn", "tensor", "zeros",
]
