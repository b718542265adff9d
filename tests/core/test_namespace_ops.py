"""The namespace law, op by op.

The expression compiler lowers an exact plan over ``NUMPY`` and a
trainable plan over ``TCR`` (``repro.core.kernels.compiler``); both must
give the same bits. The statement-level legs (``tcr_lowering``) check this
on whole queries. Here every name the two namespaces share runs on its
own, for each dtype pairing the compiler produces: float32 and int64
columns, float64 stored columns, and shape-``(1,)`` literals
(``literal_array``). The inputs hold the values generated statements rarely
reach: NaN, +-inf, -0.0, zero divisors, huge and tiny magnitudes and
integers above 2^53.

Both sides see what the compiler hands them: ``NUMPY`` raw arrays and
``TCR`` the same arrays through ``TCR.lift``. The outcome must match in
dtype, shape and bytes (NaN payloads and the sign of zero included), or
both sides must raise the same exception type.
"""

import numpy as np
import pytest

from repro.core.expr_eval import literal_array
from repro.core.kernels.compiler import NUMPY, TCR
from repro.tcr.device import as_device

DEVICE = as_device(None)

FLOATS = [-2.5, -1.5, -1.0, -0.4, -0.0, 0.0, 0.5, 1.5, 2.5, 3.0,
          1e-30, 1e30, np.inf, -np.inf, np.nan]
INTS = [-7, -3, -1, 0, 0, 1, 2, 3, 5, 9, 2 ** 31, -(2 ** 31),
        2 ** 53 + 1, 12, 4]


def _operand(kind, shift=0):
    """An input of ``kind``: ``f32``/``f64``/``i64`` columns, ``bool``
    masks, or a ``[1]``-suffixed literal. ``shift`` rolls a column so a
    binary op pairs different values (zero beside NaN, and so on)."""
    if kind == "f32[1]":
        return literal_array(-2.5)
    if kind == "i64[1]":
        return literal_array(3)
    if kind == "bool":
        return np.roll(np.array([True, False, True, True, False] * 3), shift)
    if kind == "i64":
        return np.roll(np.array(INTS, dtype=np.int64), shift)
    dtype = {"f32": np.float32, "f64": np.float64}[kind]
    return np.roll(np.array(FLOATS, dtype=dtype), shift)


def _outcome(fn, args):
    with np.errstate(all="ignore"):
        try:
            out = fn(*args)
        except Exception as error:        # the law covers errors too
            return ("raises", type(error))
    data = NUMPY.lower(out) if hasattr(out, "detach") else np.asarray(out)
    return (data.dtype, data.shape, data.tobytes())


def _assert_same_bits(name, arrays, extra=()):
    lifted = [TCR.lift(a, DEVICE) if isinstance(a, np.ndarray) else a
              for a in arrays]
    want = _outcome(getattr(NUMPY, name), list(arrays) + list(extra))
    got = _outcome(getattr(TCR, name), lifted + list(extra))
    assert got[:2] == want[:2], (name, got[:2], want[:2])
    assert got == want, (name, "bytes differ")


BINARY = ["add", "sub", "mul", "div", "remainder", "pow", "minimum",
          "maximum", "eq", "ne", "lt", "le", "gt", "ge"]
BINARY_KINDS = [("f32", "f32"), ("i64", "i64"), ("i64", "f32"),
                ("f32", "i64[1]"), ("i64", "f32[1]")]
UNARY_ANY = ["neg", "abs", "round", "floor", "ceil"]
UNARY_FLOAT = ["sqrt", "exp", "log", "sigmoid"]
LOGICAL = [("logical_and", 2), ("logical_or", 2), ("logical_not", 1)]
WHERE_KINDS = [("f32", "f32"), ("i64", "i64"), ("i64", "f32"),
               ("f32", "f32[1]")]
CASTS = [("i64", np.float32), ("f64", np.float32), ("bool", np.float32),
         ("f32", np.float64)]


def test_every_shared_name_is_checked():
    shared = set(vars(NUMPY)) - {"label", "lift", "lower"}
    checked = (set(BINARY) | set(UNARY_ANY) | set(UNARY_FLOAT)
               | {name for name, _ in LOGICAL} | {"where", "astype"})
    assert checked == shared
    assert shared == set(vars(TCR)) - {"label", "lift", "lower"}


@pytest.mark.parametrize("kinds", BINARY_KINDS, ids="-".join)
@pytest.mark.parametrize("name", BINARY)
def test_binary(name, kinds):
    a, b = _operand(kinds[0]), _operand(kinds[1], shift=4)
    if name == "pow" and b.dtype.kind == "i":
        b = np.abs(b) % 5    # integers to negative powers raise on both sides
    _assert_same_bits(name, [a, b])


@pytest.mark.parametrize("kind", ["f32", "f64", "i64"])
@pytest.mark.parametrize("name", UNARY_ANY)
def test_unary(name, kind):
    _assert_same_bits(name, [_operand(kind)])


@pytest.mark.parametrize("kind", ["f32", "f64"])
@pytest.mark.parametrize("name", UNARY_FLOAT)
def test_unary_float(name, kind):
    _assert_same_bits(name, [_operand(kind)])


@pytest.mark.parametrize("name,arity", LOGICAL, ids=[n for n, _ in LOGICAL])
def test_logical(name, arity):
    _assert_same_bits(name, [_operand("bool", shift) for shift in range(arity)])


@pytest.mark.parametrize("kinds", WHERE_KINDS, ids="-".join)
def test_where_takes_a_numpy_mask(kinds):
    # COALESCE and CASE compute their masks with numpy on detached data
    # under either namespace: the condition stays a raw array.
    mask = _operand("bool", shift=1)
    a, b = _operand(kinds[0]), _operand(kinds[1], shift=4)
    want = _outcome(NUMPY.where, [mask, a, b])
    got = _outcome(TCR.where, [mask, TCR.lift(a, DEVICE), TCR.lift(b, DEVICE)])
    assert got == want


@pytest.mark.parametrize("kind,dtype", CASTS,
                         ids=[f"{k}-{np.dtype(d).name}" for k, d in CASTS])
def test_astype(kind, dtype):
    _assert_same_bits("astype", [_operand(kind)], extra=[dtype])
