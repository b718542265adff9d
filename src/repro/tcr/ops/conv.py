"""Convolution and pooling kernels over strided slabs, with full adjoints.

These back the CNN digit/size parsers, CNN-Small and ResNet used in the
MNISTGrid experiments (paper §5.4/§5.5), and the TinyCLIP image tower.

Every kernel here walks the kh×kw kernel offsets. Offset (i, j) reads one
strided slab of the input, ``x[..., i::sh, j::sw]`` cut to the Ho×Wo output
grid (``_slab``), and every adjoint adds into the same slab of a zeroed
gradient. ``conv2d`` copies the slabs into a channel-first im2col matrix of
shape (N, C·kh·kw, Ho·Wo), so the forward is one matmul straight into NCHW
and the backward reads the NCHW gradient without a transpose. The pools
reduce the slabs directly: no window matrix is built.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ShapeError
from repro.tcr.device import same_device
from repro.tcr.tensor import Tensor


def _pair(value, name: str, least: int) -> Tuple[int, int]:
    """``value`` as (height, width); both must be at least ``least``."""
    if isinstance(value, (tuple, list)):
        pair = int(value[0]), int(value[1])
    else:
        pair = int(value), int(value)
    if min(pair) < least:
        raise ShapeError(f"{name} must be at least {least}, got {value!r}")
    return pair


def _grid(op: str, h: int, w: int, kh: int, kw: int, sh: int, sw: int) -> Tuple[int, int]:
    """Output height and width of a kh×kw window at stride (sh, sw) over h×w."""
    if h < kh or w < kw:
        raise ShapeError(f"{op} kernel {kh}x{kw} larger than (padded) input {h}x{w}")
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def _slab(x: np.ndarray, i: int, j: int, sh: int, sw: int, ho: int, wo: int) -> np.ndarray:
    """View of the elements kernel offset (i, j) reads, one per output: (..., Ho, Wo)."""
    return x[..., i:i + sh * (ho - 1) + 1:sh, j:j + sw * (wo - 1) + 1:sw]


def _col2im(cols: np.ndarray, x_shape: tuple, sh: int, sw: int) -> np.ndarray:
    """Adjoint of the im2col copy: add each offset's (N,C,Ho,Wo) slab back."""
    _, _, kh, kw, ho, wo = cols.shape
    out = np.zeros(x_shape, dtype=cols.dtype)
    for i in range(kh):
        for j in range(kw):
            view = _slab(out, i, j, sh, sw, ho, wo)
            view += cols[:, :, i, j]
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Tensor = None, stride=1, padding=0) -> Tensor:
    """2-d cross-correlation: x (N,C,H,W) * weight (O,C,kh,kw) -> (N,O,Ho,Wo)."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/weight, got {x.shape}/{weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape[1]} vs weight {weight.shape[1]}")
    sh, sw = _pair(stride, "conv2d stride", 1)
    ph, pw = _pair(padding, "conv2d padding", 0)
    parents = [x, weight] + ([bias] if bias is not None else [])
    device = same_device(*[p.device for p in parents])

    x_data = x.data
    if ph or pw:
        x_data = np.pad(x_data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    n, c, h, w = x_data.shape
    o, _, kh, kw = weight.shape
    ho, wo = _grid("conv2d", h, w, kh, kw, sh, sw)
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x_data.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = _slab(x_data, i, j, sh, sw, ho, wo)
    cols = cols.reshape(n, c * kh * kw, ho * wo)
    w_mat = weight.data.reshape(o, c * kh * kw)
    out = np.matmul(w_mat, cols).reshape(n, o, ho, wo)
    if bias is not None:
        out += bias.data.reshape(1, o, 1, 1)
    padded_shape = x_data.shape
    orig_shape = x.shape

    def backward(grad):
        g = grad.reshape(n, o, ho * wo)
        gx = gw = gb = None
        if x.requires_grad:
            gcols = np.matmul(w_mat.T, g).reshape(n, c, kh, kw, ho, wo)
            gx_padded = _col2im(gcols, padded_shape, sh, sw)
            gx = gx_padded[:, :, ph:ph + orig_shape[2], pw:pw + orig_shape[3]] if (ph or pw) else gx_padded
        if weight.requires_grad:
            gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(o, c, kh, kw)
        if bias is not None and bias.requires_grad:
            gb = grad.sum(axis=(0, 2, 3)).reshape(bias.shape)
        result = [gx, gw]
        if bias is not None:
            result.append(gb)
        return tuple(result)

    return Tensor._make(out, tuple(parents), backward, "conv2d", device)


def _pool_window(op: str, x: Tensor, kernel_size, stride):
    """Validated (kh, kw, sh, sw, ho, wo) of a pooling window over x."""
    if x.ndim != 4:
        raise ShapeError(f"{op} expects a 4-d tensor, got {x.shape}")
    kh, kw = _pair(kernel_size, f"{op} kernel_size", 1)
    sh, sw = _pair(stride, f"{op} stride", 1) if stride is not None else (kh, kw)
    ho, wo = _grid(op, x.shape[2], x.shape[3], kh, kw, sh, sw)
    return kh, kw, sh, sw, ho, wo


def max_pool2d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Window maximum; its gradient goes to the first maximal element.

    "First" is row-major order within the window, and a NaN counts as
    maximal (the window's output is then NaN): the rule of ``np.argmax``.
    """
    kh, kw, sh, sw, ho, wo = _pool_window("max_pool2d", x, kernel_size, stride)
    data = x.data
    offsets = [(i, j) for i in range(kh) for j in range(kw)]
    out = _slab(data, 0, 0, sh, sw, ho, wo).copy()
    for i, j in offsets[1:]:
        # np.maximum returns its second operand on ties, so the running
        # maximum keeps the first of equal elements (-0.0 before 0.0).
        np.maximum(_slab(data, i, j, sh, sw, ho, wo), out, out=out)

    def backward(grad):
        gx = np.zeros(data.shape, dtype=grad.dtype)
        taken = np.zeros(out.shape, dtype=bool)
        nan_windows = np.isnan(out).any()
        for i, j in offsets:
            window = _slab(data, i, j, sh, sw, ho, wo)
            hit = window == out
            if nan_windows:
                hit |= np.isnan(window)
            hit &= ~taken
            taken |= hit
            view = _slab(gx, i, j, sh, sw, ho, wo)
            view += grad * hit
        return (gx,)

    return Tensor._make(out, (x,), backward, "max_pool2d", x.device)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Global average pooling (output size 1), the ResNet head's."""
    if output_size != 1:
        raise ShapeError("adaptive_avg_pool2d supports only output size 1")
    from repro.tcr.ops.reduction import mean
    return mean(x, dim=(2, 3), keepdim=True)
