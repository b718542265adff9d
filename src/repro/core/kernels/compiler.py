"""Lower bound expression trees to tensor programs: the one expression engine.

TQP-style codegen: ``ExprCompiler`` maps every bound node (arithmetic,
comparisons, boolean logic, IN, BETWEEN, LIKE, CASE, IS NULL, casts,
builtins, UDF call sites) to a stateless closure ``fn(ctx) -> value`` once,
at plan time; ``ctx`` is the operator's per-pass
:class:`~repro.core.expr_eval.ExpressionEvaluator`. All per-node dispatch
(method lookup, scalar folding, literal materialisation) happens while
lowering; a batch runs the chain of vectorized ops.

The closures are written against an array namespace ``xp`` carrying tcr's
op names. ``NUMPY`` computes on detached ndarrays (exact plans); ``TCR`` is
``repro.tcr.ops`` itself, so gradients flow (trainable plans). Both
produce the same bits: the numpy namespace is the forward function of each
tcr op.

* Numeric builtins live in one table, ``_BUILTINS`` (name -> function of
  ``xp`` and the evaluated arguments).
* Literals are shape-``(1,)`` arrays (see ``literal_array``); results
  broadcast to the batch length only at ``ctx.materialize``.
* Predicates on values that carry no gradient (dictionary compares, IN,
  LIKE, IS NULL, the masks of CASE and COALESCE, non-float casts) are
  computed with numpy on detached data under either namespace.
* String work runs on dictionary codes through ``kernels.strings``: a
  sorted dictionary is the one stored form of strings, and a string
  function over a non-string value dictionary-encodes its stringified
  values on the spot.
* A lowered value is an ``xp`` array (numeric/bool data), a ``Column``
  (stored columns, string and UDF results) or, at plan time only, a folded
  :class:`Scalar`.
"""

from __future__ import annotations

import functools
import operator
import types
from typing import Callable, Optional, Union

import numpy as np

from repro.core.expr_eval import (
    Scalar,
    _structural_key,
    broadcast_rows,
    literal_array,
)
from repro.core.kernels import strings as string_kernels
from repro.errors import ExecutionError
from repro.sql import bound as b
from repro.storage import types as dt
from repro.storage.column import Column
from repro.storage.encodings import DictionaryEncoding, EncodedTensor
from repro.tcr import ops as tcr_ops
from repro.tcr.ops.activation import sigmoid_forward
from repro.tcr.ops.elementwise import div_forward
from repro.tcr.tensor import Tensor

# ----------------------------------------------------------------------
# The two array namespaces
# ----------------------------------------------------------------------
# ``lift`` makes detached data a namespace value, ``lower`` makes a stored
# tensor one; ``label`` is what EXPLAIN prints for a stage body.
NUMPY = types.SimpleNamespace(
    label="kernel",
    add=np.add, sub=np.subtract, mul=np.multiply, div=div_forward,
    remainder=np.remainder, neg=np.negative, abs=np.abs, sqrt=np.sqrt,
    exp=np.exp, log=np.log, pow=np.power, round=np.round, floor=np.floor,
    ceil=np.ceil, minimum=np.minimum, maximum=np.maximum,
    sigmoid=sigmoid_forward, where=np.where,
    eq=np.equal, ne=np.not_equal, lt=np.less, le=np.less_equal,
    gt=np.greater, ge=np.greater_equal,
    logical_and=np.logical_and, logical_or=np.logical_or,
    logical_not=np.logical_not,
    astype=lambda array, dtype: array.astype(dtype),
    lift=lambda array, device: array,
    lower=lambda tensor: tensor.detach().data,
)
TCR = types.SimpleNamespace(
    label="interp",
    **{name: getattr(tcr_ops, name) for name in vars(NUMPY)
       if name not in ("label", "lift", "lower")},
    lift=lambda array, device: Tensor(array, device=device, dtype=array.dtype),
    lower=lambda tensor: tensor,
)

_ARITH = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "remainder"}
_COMPARE = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_FOLD = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
    "=": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "AND": lambda lv, rv: bool(lv) and bool(rv),
    "OR": lambda lv, rv: bool(lv) or bool(rv),
}
_CAST_SCALAR = {"int": int, "float": float, "bool": bool}    # else: str
_CAST_DTYPE = {"int": np.int64, "float": np.float32, "bool": np.bool_}
_STRING_FNS = {"UPPER": str.upper, "LOWER": str.lower, "TRIM": str.strip,
               "LENGTH": len}


# ----------------------------------------------------------------------
# The builtin table: name -> fn(xp, *evaluated numeric arguments)
# ----------------------------------------------------------------------
def _to_float(xp, array):
    return array if array.dtype.kind == "f" else xp.astype(array, np.float32)


def _round(xp, array, digits=None):
    if digits is None:
        return xp.round(array)
    # The digits operand is read at row 0 (what makes non-literal digits a
    # stage breaker); zero rows have no value to read and any factor gives
    # the same empty output.
    digits = _data(digits).reshape(-1)
    factor = np.asarray(10.0 ** (float(digits[0]) if digits.size else 0.0),
                        dtype=np.float32)
    return xp.div(xp.round(xp.mul(array, factor)), factor)


def _coalesce(xp, result, *rest):
    for fill in rest:
        if result.dtype.kind != "f":
            break   # non-float carries no NULLs; later args unreachable
        result = xp.where(np.isnan(_data(result)), fill, result)
    return result


_BUILTINS = {
    "ABS": lambda xp, a: xp.abs(a),
    "SQRT": lambda xp, a: xp.sqrt(_to_float(xp, a)),
    "EXP": lambda xp, a: xp.exp(_to_float(xp, a)),
    "LN": lambda xp, a: xp.log(_to_float(xp, a)),
    "LOG": lambda xp, a: xp.log(_to_float(xp, a)),
    "POW": lambda xp, a, e: xp.pow(_to_float(xp, a), e),
    "POWER": lambda xp, a, e: xp.pow(_to_float(xp, a), e),
    "ROUND": _round,
    "FLOOR": lambda xp, a: xp.floor(a),
    "CEIL": lambda xp, a: xp.ceil(a),
    "LEAST": lambda xp, *args: functools.reduce(xp.minimum, args),
    "GREATEST": lambda xp, *args: functools.reduce(xp.maximum, args),
    "SIGMOID": lambda xp, a: xp.sigmoid(_to_float(xp, a)),
    "COALESCE": _coalesce,
}


# ----------------------------------------------------------------------
# Run-time value helpers
# ----------------------------------------------------------------------
def _data(value) -> np.ndarray:
    """The detached ndarray behind any lowered value."""
    if isinstance(value, Column):
        return value.tensor.data
    return value.data if isinstance(value, Tensor) else value


def _dictionary(value) -> Optional[Column]:
    """``value`` when it is a dictionary-coded string column, else None."""
    if isinstance(value, Column) and isinstance(value.encoding, DictionaryEncoding):
        return value
    return None


def _strings(value, ctx) -> Column:
    """The operand of a string function, which accepts everything: what
    is not a string column becomes the dictionary of its stringified values."""
    column = _dictionary(value)
    if column is None:
        strings = ctx.materialize(value).decode().astype(str).astype(object)
        column = Column.from_values("", strings, device=ctx.device)
    return column


def _literal_mask(column: Column, op: str, literal: str) -> Optional[np.ndarray]:
    """``column <op> 'literal'`` on the codes of a dictionary column (None
    for any other column): equality is one code, ranges are a boundary in
    the sorted dictionary."""
    column = _dictionary(column)
    if column is None:
        return None
    encoding, codes = column.encoding, column.tensor.data
    if op in ("=", "!="):
        code = encoding.code_for(literal)
        mask = (np.zeros(codes.shape[0], dtype=bool) if code is None
                else codes == code)
        return ~mask if op == "!=" else mask
    boundary = encoding.range_for(
        literal, side="left" if op in ("<", ">=") else "right")
    return codes < boundary if op in ("<", "<=") else codes >= boundary


def _cast_array(data: np.ndarray, dtype) -> np.ndarray:
    """Non-differentiable cast; CAST(NaN / +-inf AS INT) is 0."""
    if dtype is np.int64 and data.dtype.kind == "f":
        data = np.where(np.isfinite(data), data, 0)
    return data.astype(dtype)


def _slotted(key, fn: Callable) -> Callable:
    """Runtime CSE: closures sharing ``key`` evaluate once per context."""
    if key is None:
        return fn

    def cached(ctx):
        try:
            return ctx.slots[key]
        except KeyError:
            value = ctx.slots[key] = fn(ctx)
            return value
    return cached


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
class ExprCompiler:
    """Lowers bound expressions over one array namespace. ``column``,
    ``mask`` and ``value`` are what operators hold; ``lower`` is the
    recursive core and may return a plan-time :class:`Scalar`."""

    def __init__(self, xp=NUMPY):
        self.xp = xp

    def column(self, expr: b.BoundExpr, name: str = "") -> Callable:
        """``fn(ctx) -> Column`` of ``ctx.num_rows`` rows, named ``name``."""
        lowered = self.lower(expr)
        if isinstance(lowered, Scalar):
            return lambda ctx: ctx.materialize(lowered, name)
        return lambda ctx: ctx.materialize(lowered(ctx), name)

    def value(self, expr: b.BoundExpr) -> Callable:
        """``fn(ctx) -> Column | Scalar``: the form UDF arguments take."""
        lowered = self.lower(expr)
        if isinstance(lowered, Scalar):
            return lambda ctx: lowered
        return lambda ctx: ctx.materialize(lowered(ctx))

    def mask(self, expr: b.BoundExpr) -> Callable:
        """``fn(ctx) ->`` full-length boolean ndarray (a predicate)."""
        lowered = self.lower(expr)
        if isinstance(lowered, Scalar):
            truth = bool(lowered.value)
            return lambda ctx: np.full(ctx.num_rows, truth)

        def fn(ctx):
            data = _data(lowered(ctx))
            if data.dtype.kind != "b":
                raise ExecutionError(
                    f"predicate evaluated to {data.dtype}, expected bool")
            return broadcast_rows(data, ctx.num_rows)
        return fn

    def numeric(self, expr: b.BoundExpr) -> Callable:
        """``fn(ctx) -> xp array`` (possibly ``(1,)``-shaped for literals)."""
        return self._num_fn(self.lower(expr))

    def lower(self, expr: b.BoundExpr) -> Union[Scalar, Callable]:
        method = getattr(self, f"_lower_{type(expr).__name__}", None)
        if method is None:
            raise ExecutionError(f"cannot evaluate {type(expr).__name__}")
        lowered = method(expr)
        if isinstance(lowered, Scalar):
            return lowered
        return _slotted(_structural_key(expr), lowered)

    # -- value adapters -------------------------------------------------
    def _num(self, value):
        if isinstance(value, Column):
            if isinstance(value.encoding, DictionaryEncoding):
                raise ExecutionError("arithmetic on string columns is not supported")
            return self.xp.lower(value.tensor)
        return value

    def _num_fn(self, lowered) -> Callable:
        if not isinstance(lowered, Scalar):
            return lambda ctx: self._num(lowered(ctx))
        lift, constant = self.xp.lift, lowered.value
        try:
            array = literal_array(constant)
        except (TypeError, ValueError):
            # float('abc'): a run-time error of the statement, not of the plan.
            return lambda ctx: literal_array(constant)
        return lambda ctx: lift(array, ctx.device)

    def _bool_fn(self, lowered) -> Callable:
        if isinstance(lowered, Scalar):
            lift, array = self.xp.lift, np.full(1, bool(lowered.value))
            return lambda ctx: lift(array, ctx.device)

        def fn(ctx):
            value = lowered(ctx)
            if isinstance(value, Column):
                value = self.xp.lower(value.tensor)
            if value.dtype.kind != "b":
                raise ExecutionError(f"expected boolean operand, got {value.dtype}")
            return value
        return fn

    # -- leaves ---------------------------------------------------------
    def _lower_BColumn(self, expr: b.BColumn):
        return lambda ctx: ctx._eval_BColumn(expr)

    def _lower_BLiteral(self, expr: b.BLiteral):
        return Scalar(expr.value)

    def _lower_BCall(self, expr: b.BCall):
        # The context owns invocation, device re-homing and the
        # materialization-cache protocol.
        args = [self._argument(arg) for arg in expr.args]
        return lambda ctx: ctx._eval_BCall(expr, [arg(ctx) for arg in args])

    def _argument(self, expr: b.BoundExpr) -> Callable:
        """A UDF argument. A stored column goes through ``ctx.argument``,
        which under a selection hands the call site its lineage instead of
        its gathered rows (:class:`~repro.core.expr_eval.Gather`)."""
        if type(expr) is not b.BColumn:
            return self.value(expr)
        read = self.lower(expr)
        return lambda ctx: ctx.argument(expr, read)

    # -- operators ------------------------------------------------------
    def _lower_BBinary(self, expr: b.BBinary):
        op = expr.op
        left, right = self.lower(expr.left), self.lower(expr.right)
        if isinstance(left, Scalar) and isinstance(right, Scalar):
            return Scalar(_FOLD[op](left.value, right.value))
        if op in _COMPARE:
            return self._lower_compare(op, left, right)
        if op in ("AND", "OR"):
            fn = self.xp.logical_and if op == "AND" else self.xp.logical_or
            lf, rf = self._bool_fn(left), self._bool_fn(right)
        else:
            fn = getattr(self.xp, _ARITH[op])
            lf, rf = self._num_fn(left), self._num_fn(right)
        return lambda ctx: fn(lf(ctx), rf(ctx))

    def _lower_compare(self, op: str, left, right):
        """Strings compare on their dictionary codes (against a string
        literal, or column against column); which columns those are is
        only known from the run-time encodings, and everything else is a
        numeric compare."""
        xp, name = self.xp, _COMPARE[op]
        fn = getattr(xp, name)
        if isinstance(left, Scalar) or isinstance(right, Scalar):
            if isinstance(left, Scalar) and isinstance(left.value, str) \
                    and not isinstance(right, Scalar):
                return self._lower_compare(_FLIPPED[op], right, left)
            lf, rf = self._num_fn(left), self._num_fn(right)
            if isinstance(left, Scalar) or not isinstance(right.value, str):
                return lambda ctx: fn(lf(ctx), rf(ctx))
            literal = right.value

            def column_literal(ctx):
                value = left(ctx)
                mask = (_literal_mask(value, op, literal)
                        if isinstance(value, Column) else None)
                if mask is None:
                    return fn(self._num(value), rf(ctx))
                return xp.lift(mask, ctx.device)
            return column_literal

        def column_column(ctx):
            lv, rv = left(ctx), right(ctx)
            ld, rd = _dictionary(lv), _dictionary(rv)
            if ld is None or rd is None:
                return fn(self._num(lv), self._num(rv))
            codes = string_kernels.comparable_codes(ld, rd)
            return xp.lift(getattr(NUMPY, name)(*codes), ctx.device)
        return column_column

    def _lower_BUnary(self, expr: b.BUnary):
        operand = self.lower(expr.operand)
        if expr.op == "NOT":
            if isinstance(operand, Scalar):
                return Scalar(not bool(operand.value))
            fn, of = self.xp.logical_not, self._bool_fn(operand)
        else:
            if isinstance(operand, Scalar):
                return Scalar(-operand.value)
            fn, of = self.xp.neg, self._num_fn(operand)
        return lambda ctx: fn(of(ctx))

    def _lower_BBuiltin(self, expr: b.BBuiltin):
        name, xp = expr.name, self.xp
        if name in _STRING_FNS:
            return self._lower_string_fn(name, expr.args[0])
        if name in ("SUBSTR", "SUBSTRING"):
            return self._lower_substr(expr)
        fn = _BUILTINS.get(name)
        if fn is None:
            raise ExecutionError(f"unknown builtin {name}")
        args = [self._num_fn(self.lower(arg)) for arg in expr.args]
        return lambda ctx: fn(xp, *[arg(ctx) for arg in args])

    def _lower_string_fn(self, name: str, arg_expr: b.BoundExpr):
        arg = self.lower(arg_expr)
        if isinstance(arg, Scalar):
            return Scalar(_STRING_FNS[name](str(arg.value)))
        if name == "LENGTH":
            lift = self.xp.lift

            def length(ctx):
                column = _strings(arg(ctx), ctx)
                lengths = string_kernels.length_transform(column.encoding)
                return lift(lengths[column.tensor.data], ctx.device)
            return length
        if name == "TRIM":
            return self._recode(arg, lambda encoding: string_kernels.string_transform(
                encoding, "trim", str.strip))
        upper = name == "UPPER"
        return self._recode(arg, lambda encoding: string_kernels.case_transform(
            encoding, upper))

    def _lower_substr(self, expr: b.BBuiltin):
        arg = self.lower(expr.args[0])
        params = [self.lower(a) for a in expr.args[1:]]
        if not all(isinstance(p, Scalar) for p in params):
            def reject(ctx):
                raise ExecutionError(
                    "SUBSTR start/length must be constant expressions")
            return reject
        start = int(params[0].value)
        length = int(params[1].value) if len(params) > 1 else None
        if isinstance(arg, Scalar):
            return Scalar(string_kernels.substr_value(str(arg.value), start, length))
        return self._recode(arg, lambda encoding: string_kernels.string_transform(
            encoding, ("substr", start, length),
            lambda s: string_kernels.substr_value(s, start, length)))

    @staticmethod
    def _recode(arg: Callable, transform: Callable) -> Callable:
        """A per-distinct string function as a dictionary transform plus
        one code gather (``transform(encoding) -> (new_encoding, remap)``)."""
        def fn(ctx):
            column = _strings(arg(ctx), ctx)
            encoding, remap = transform(column.encoding)
            codes = Tensor(remap[column.tensor.data], device=ctx.device)
            return Column("", EncodedTensor(codes, encoding))
        return fn

    def _lower_BBetween(self, expr: b.BBetween):
        operand = self.lower(expr.operand)
        if not isinstance(operand, Scalar) \
                and _structural_key(expr.operand) is None:
            # Both bounds read one evaluation even of an unshareable
            # operand (a non-deterministic UDF).
            operand = _slotted(object(), operand)
        # BETWEEN never folds: all-scalar operands compare as (1,) arrays.
        low_ok = self._lower_compare(">=", operand, self.lower(expr.low))
        high_ok = self._lower_compare("<=", operand, self.lower(expr.high))
        xp, negated = self.xp, expr.negated

        def fn(ctx):
            mask = xp.logical_and(low_ok(ctx), high_ok(ctx))
            return xp.logical_not(mask) if negated else mask
        return fn

    def _lower_BIn(self, expr: b.BIn):
        operand = self.lower(expr.operand)
        negated, lift = expr.negated, self.xp.lift
        if isinstance(operand, Scalar):
            return Scalar((operand.value in expr.values) != negated)
        values = list(expr.values)
        plain_values = np.asarray(values)

        def fn(ctx):
            value = operand(ctx)
            column = _dictionary(value)
            if column is None:
                mask = np.isin(_data(value), plain_values)
            else:
                encoding = column.encoding
                member = np.zeros(encoding.cardinality, dtype=bool)
                for v in values:
                    code = encoding.code_for(str(v))
                    if code is not None:
                        member[code] = True
                mask = member[column.tensor.data]
            return lift(~mask if negated else mask, ctx.device)
        return fn

    def _lower_BLike(self, expr: b.BLike):
        operand = self.lower(expr.operand)
        pattern, negated, lift = expr.pattern, expr.negated, self.xp.lift
        if isinstance(operand, Scalar):
            constant = Column.from_values("", [str(operand.value)])
            matched = string_kernels.like_mask(
                constant.encoding, constant.tensor.data, pattern)[0]
            return Scalar(bool(matched) != negated)

        def fn(ctx):
            column = _strings(operand(ctx), ctx)
            mask = string_kernels.like_mask(column.encoding,
                                            column.tensor.data, pattern)
            return lift(~mask if negated else mask, ctx.device)
        return fn

    def _lower_BIsNull(self, expr: b.BIsNull):
        operand = self.lower(expr.operand)
        negated, lift = expr.negated, self.xp.lift
        if isinstance(operand, Scalar):
            return Scalar((operand.value is None) != negated)

        def fn(ctx):
            data = _data(operand(ctx))
            if data.dtype.kind == "f":
                mask = np.isnan(data)
                if data.ndim > 1:
                    mask = mask.reshape(data.shape[0], -1).any(axis=1)
            else:
                mask = np.zeros(data.shape[0], dtype=bool)
            return lift(~mask if negated else mask, ctx.device)
        return fn

    def _lower_BCase(self, expr: b.BCase):
        whens = [(self.mask(cond), self.numeric(value))
                 for cond, value in expr.whens]
        else_fn = None if expr.else_ is None else self.numeric(expr.else_)
        # A float32 zero (what tcr makes of a python 0.0): a float32 branch
        # stays float32, an int branch promotes to float64.
        xp, zero = self.xp, np.asarray(0.0, dtype=np.float32)

        def fn(ctx):
            result = taken = None
            for cond_fn, branch_fn in whens:
                mask, branch = cond_fn(ctx), branch_fn(ctx)
                if result is None:
                    result = xp.where(mask, branch, xp.mul(branch, zero))
                    taken = mask
                else:
                    result = xp.where(mask & ~taken, branch, result)
                    taken = taken | mask
            if else_fn is not None:
                result = xp.where(taken, result, else_fn(ctx))
            return result
        return fn

    def _lower_BCast(self, expr: b.BCast):
        operand = self.lower(expr.operand)
        target: dt.DataType = expr.data_type
        if isinstance(operand, Scalar):
            return Scalar(_CAST_SCALAR.get(target.kind, str)(operand.value))
        if target.kind == "string":
            # str() per row of the decoded values (np scalar reprs).
            def to_string(ctx):
                decoded = ctx.materialize(operand(ctx)).decode()
                strings = np.asarray([str(v) for v in decoded], dtype=object)
                return Column.from_values("", strings, device=ctx.device)
            return to_string
        xp, dtype = self.xp, _CAST_DTYPE.get(target.kind)
        if dtype is None:
            raise ExecutionError(f"cannot CAST to {target}")

        def fn(ctx):
            value = operand(ctx)
            column = _dictionary(value)
            if column is not None:
                data = column.decode().astype(np.float64)
            elif dtype is np.float32:
                return xp.astype(self._num(value), dtype)   # differentiable
            else:
                data = _data(value)
            return xp.lift(_cast_array(data, dtype), ctx.device)
        return fn
