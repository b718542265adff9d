"""The ``Tensor`` type: a numpy-backed, autograd-capable multi-d array.

This mirrors the subset of ``torch.Tensor`` that the engine and the paper's
listings use: Python operators with broadcasting, indexing, ``backward()``,
``detach()``, ``item()``, device placement, dtype casts and the few method
forms (``sum``, ``mean``, ``sqrt``, ``reshape``) called as methods. Every
other op is a function in :mod:`repro.tcr.ops`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import AutogradError, ShapeError
from repro.tcr import dtype as dtypes
from repro.tcr.autograd import BackwardFn, is_grad_enabled, run_backward
from repro.tcr.device import CPU, Device, as_device


class Tensor:
    """A multidimensional array with optional gradient tracking.

    Attributes:
        data: the underlying numpy array (never shared with autograd state).
        requires_grad: whether operations on this tensor are recorded.
        grad: accumulated gradient (numpy array) after ``backward()``.
        device: placement tag (``cpu`` or simulated ``cuda``).
    """

    __slots__ = ("data", "requires_grad", "grad", "device", "_parents", "_backward", "_op",
                 # Lazily-assigned content-identity metadata for the engine's
                 # materialization cache (see repro.core.tensor_cache).
                 # _cache_tag_refs counts concurrent queries sharing one
                 # in-flight tag on a shared base-column tensor.
                 "_cache_token", "_cache_tag", "_cache_tag_refs")

    def __init__(self, data, requires_grad: bool = False, device=None, dtype=None):
        array = np.asarray(data)
        if dtype is not None:
            array = array.astype(dtype, copy=False)
        elif array.dtype == np.float64 or array.dtype.kind not in "fiub":
            array = dtypes.canonicalize(array)
        if requires_grad and not dtypes.is_float(array.dtype):
            raise AutogradError("only floating-point tensors can require gradients")
        self.data = array
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.device = as_device(device)
        self._parents: tuple = ()
        self._backward: Optional[BackwardFn] = None
        self._op = ""

    # ------------------------------------------------------------------
    # Internal graph-node constructor
    # ------------------------------------------------------------------
    @classmethod
    def _make(cls, data: np.ndarray, parents: Sequence["Tensor"], backward: Optional[BackwardFn],
              op: str, device: Device) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.device = device
        grad_needed = (
            is_grad_enabled()
            and backward is not None
            and any(p.requires_grad for p in parents)
        )
        if grad_needed:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        out._op = op
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        from repro.tcr import ops
        if self.ndim < 2:
            return self
        return ops.permute(self, tuple(reversed(range(self.ndim))))

    def numel(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        if self.ndim == 0:
            raise ShapeError("len() of a 0-d tensor")
        return self.data.shape[0]

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        dev_note = f", device='{self.device}'" if self.device != CPU else ""
        return f"tensor({np.array2string(self.data, precision=4, threshold=20)}{dev_note}{grad_note})"

    def __bool__(self) -> bool:
        if self.data.size != 1:
            raise ShapeError("truth value of a multi-element tensor is ambiguous")
        return bool(self.data.reshape(()))

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single-element tensor, got shape {self.shape}")
        return self.data.reshape(()).item()

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.grad = None
        out.device = self.device
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        out._op = "detach"
        return out

    def to(self, device=None, dtype=None) -> "Tensor":
        """Move to a device and/or cast dtype (differentiable for float casts)."""
        from repro.tcr import ops
        out = self
        if dtype is not None and np.dtype(dtype) != self.dtype:
            out = ops.astype(out, dtype)
        if device is not None:
            target = as_device(device)
            if target != out.device:
                out = ops.to_device(out, target)
        return out

    def astype(self, dtype) -> "Tensor":
        from repro.tcr import ops
        return ops.astype(self, dtype)

    def long(self) -> "Tensor":
        return self.astype(np.int64)

    # ------------------------------------------------------------------
    # Autograd entry points
    # ------------------------------------------------------------------
    def backward(self, gradient: "Tensor | np.ndarray | None" = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if gradient is None:
            if self.data.size != 1:
                raise AutogradError("grad can be implicitly created only for scalar outputs")
            seed = np.ones_like(self.data)
        elif isinstance(gradient, Tensor):
            seed = gradient.data
        else:
            seed = np.asarray(gradient, dtype=self.data.dtype)
        if seed.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {seed.shape} does not match output shape {self.data.shape}"
            )
        run_backward(self, seed)

    # ------------------------------------------------------------------
    # Arithmetic operators (delegating to ops)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.tcr import ops
        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.tcr import ops
        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.tcr import ops
        return ops.sub(other, self)

    def __mul__(self, other):
        from repro.tcr import ops
        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.tcr import ops
        return ops.div(self, other)

    def __rtruediv__(self, other):
        from repro.tcr import ops
        return ops.div(other, self)

    def __pow__(self, other):
        from repro.tcr import ops
        return ops.pow(self, other)

    def __neg__(self):
        from repro.tcr import ops
        return ops.neg(self)

    def __matmul__(self, other):
        from repro.tcr import ops
        return ops.matmul(self, other)

    def __mod__(self, other):
        from repro.tcr import ops
        return ops.remainder(self, other)

    # Comparisons (never differentiable; produce bool tensors).
    def __eq__(self, other):  # type: ignore[override]
        from repro.tcr import ops
        return ops.eq(self, other)

    def __ne__(self, other):  # type: ignore[override]
        from repro.tcr import ops
        return ops.ne(self, other)

    def __lt__(self, other):
        from repro.tcr import ops
        return ops.lt(self, other)

    def __le__(self, other):
        from repro.tcr import ops
        return ops.le(self, other)

    def __gt__(self, other):
        from repro.tcr import ops
        return ops.gt(self, other)

    def __ge__(self, other):
        from repro.tcr import ops
        return ops.ge(self, other)

    __hash__ = object.__hash__

    # Logical operators on bool tensors.
    def __invert__(self):
        from repro.tcr import ops
        return ops.logical_not(self)

    def __and__(self, other):
        from repro.tcr import ops
        return ops.logical_and(self, other)

    def __or__(self, other):
        from repro.tcr import ops
        return ops.logical_or(self, other)

    def __xor__(self, other):
        from repro.tcr import ops
        return ops.logical_xor(self, other)

    # Indexing.
    def __getitem__(self, index):
        from repro.tcr import ops
        return ops.getitem(self, index)

    def __setitem__(self, index, value):
        if self.requires_grad or self._backward is not None:
            raise AutogradError("in-place assignment on a graph tensor is not supported")
        if isinstance(index, Tensor):
            index = index.data
        elif isinstance(index, tuple):
            index = tuple(i.data if isinstance(i, Tensor) else i for i in index)
        if isinstance(value, Tensor):
            value = value.data
        self.data[index] = value

    # ------------------------------------------------------------------
    # Method forms of common ops
    # ------------------------------------------------------------------
    def sqrt(self):
        from repro.tcr import ops
        return ops.sqrt(self)

    def sum(self, dim=None, keepdim: bool = False):
        from repro.tcr import ops
        return ops.sum(self, dim, keepdim)

    def mean(self, dim=None, keepdim: bool = False):
        from repro.tcr import ops
        return ops.mean(self, dim, keepdim)

    def reshape(self, *shape):
        from repro.tcr import ops
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)


def ensure_tensor(value, device: Optional[Device] = None, dtype=None) -> Tensor:
    """Coerce scalars/arrays/lists into a Tensor on ``device``."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, device=device, dtype=dtype)


# ----------------------------------------------------------------------
# Creation functions (torch-style free functions)
# ----------------------------------------------------------------------

def tensor(data, dtype=None, device=None, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, device=device, dtype=dtype)


def zeros(*shape, dtype=np.float32, device=None, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad, device=device)

def ones(*shape, dtype=np.float32, device=None, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad, device=device)
