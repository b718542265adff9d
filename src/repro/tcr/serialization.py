"""Save/load module state dicts as ``.npz`` archives."""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from repro.errors import TdpError
from repro.tcr.nn.module import Module


def save_state(module_or_state, path: str) -> None:
    """Write a module's (or raw) state dict to ``path`` (.npz)."""
    if isinstance(module_or_state, Module):
        state = module_or_state.state_dict()
    elif isinstance(module_or_state, dict):
        state = module_or_state
    else:
        raise TdpError(f"cannot serialise {type(module_or_state).__name__}")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state)


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Read a state dict saved by :func:`save_state`."""
    if not os.path.exists(path):
        raise TdpError(f"no saved state at {path}")
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}
