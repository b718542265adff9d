"""Reverse-mode automatic differentiation engine.

This is the capability the paper gets from PyTorch [26]: every operation on
tensors that require gradients records a node in a dynamic (define-by-run)
graph; ``Tensor.backward()`` replays the graph in reverse topological order,
accumulating gradients into leaves. Trainable queries (paper §4) rely on this
engine to backpropagate through soft relational operators into UDF models.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import AutogradError

# Backward functions receive the gradient flowing into the node's output and
# return one gradient array (or None) per parent, in parent order.
BackwardFn = Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]


class _GradMode(threading.local):
    """Thread-local flag mirroring torch.is_grad_enabled()."""

    def __init__(self):
        self.enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return True when operations should record autograd graph nodes."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (torch.no_grad)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Broadcasting can add leading axes and stretch size-1 axes; the adjoint of
    broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def topo_order(root) -> list:
    """Iterative post-order topological sort of the autograd graph."""
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def run_backward(root, grad: np.ndarray) -> None:
    """Propagate ``grad`` from ``root`` through the recorded graph.

    Gradients are accumulated (`+=`) into the ``.grad`` of every leaf that
    requires grad (a tensor no recorded op produced, ``_backward is None``),
    PyTorch's rule. An interior node's gradient lives only while the pass
    runs: its ``.grad`` stays None. A gradient takes the dtype of the tensor
    it belongs to, also PyTorch's rule: a float64 loss over float32
    activations (``x ** 2`` promotes) sends float32 gradients below it.
    """
    if not root.requires_grad:
        raise AutogradError("backward() called on a tensor that does not require grad")
    # NB: np.ascontiguousarray would promote 0-d seeds to 1-d; keep the shape.
    grads: dict[int, np.ndarray] = {id(root): np.asarray(grad)}
    for node in reversed(topo_order(root)):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        if node._backward is None:
            node.grad = node_grad.copy() if node.grad is None else node.grad + node_grad
            continue
        parent_grads = node._backward(node_grad)
        if len(parent_grads) != len(node._parents):
            raise AutogradError(
                f"op {node._op!r} returned {len(parent_grads)} gradients for "
                f"{len(node._parents)} parents"
            )
        for parent, parent_grad in zip(node._parents, parent_grads):
            if parent_grad is None or not parent.requires_grad:
                continue
            parent_grad = np.asarray(parent_grad)
            if parent_grad.shape != parent.shape:
                parent_grad = unbroadcast(parent_grad, parent.shape)
            if parent_grad.dtype != parent.data.dtype:
                parent_grad = parent_grad.astype(parent.data.dtype)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + parent_grad
            else:
                grads[key] = parent_grad
