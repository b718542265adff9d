"""Compile bound expression trees into vectorized tensor kernels.

TQP-style codegen: ``ExprCompiler`` recursively lowers a bound expression
tree — arithmetic, comparisons, boolean logic, IN, BETWEEN, LIKE, CASE,
IS NULL, casts, builtins, with UDF call sites as opaque column inputs —
into closures over plain numpy arrays. All per-node dispatch (method
lookup, scalar folding, dtype-strategy selection, literal materialisation)
happens once at plan time; per-batch execution is the fused chain of
vectorized ops.

Bit-identity contract: for every supported shape the kernel reproduces
``ExpressionEvaluator`` bit-for-bit. The load-bearing details:

* Literals become shape-``(1,)`` arrays with the interpreter's exact dtype
  rules (bool / int64 / float32, NULL → float32 NaN). NumPy dtype promotion
  between arrays is shape-independent (NEP 50), so ``(1,)``-vs-full-``(n)``
  operands give identical bits, and results broadcast to the batch length
  only at the operator boundary.
* Interpreter op sequences are mirrored literally: ``/`` on two integer
  operands casts to float32 (tcr's ``div``), CASE multiplies the first
  branch by a float64 ``0.0`` scalar-array, SIGMOID uses tcr's stable
  formula, two-argument ROUND reproduces the multiply/round/divide chain.
* String and date work runs on the shared kernels in ``strings``/``dates``
  that the interpreter itself uses.
* UDF calls delegate to the operator's ``ExpressionEvaluator`` — the
  tensor-cache keys, content tags and micro-batching are untouched.

``UnsupportedExpr`` at plan time means the pipeline stage stays on the
interpreter; ``KernelFallback`` at run time (a batch violating a
compile-time assumption, e.g. a string value without a dictionary) makes
the stage re-run on the interpreter.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.expr_eval import (
    ExpressionEvaluator,
    Scalar,
    _cast_scalar,
    _like_to_regex,
    _structural_key,
    fold_scalars,
)
from repro.core.kernels import dates as date_kernels
from repro.core.kernels import strings as string_kernels
from repro.errors import ExecutionError
from repro.sql import bound as b
from repro.storage.column import Column
from repro.storage.encodings import (
    DatetimeEncoding,
    DictionaryEncoding,
    EncodedTensor,
    PlainEncoding,
)
from repro.tcr.dtype import is_int
from repro.tcr.tensor import Tensor


class UnsupportedExpr(Exception):
    """Plan-time: the expression shape is outside the compilable surface."""


class KernelFallback(Exception):
    """Run-time: batch data violates a compile-time assumption; the
    pipeline stage re-runs on the interpreter."""


_MISSING = object()

_ARITH_NP = {"+": np.add, "-": np.subtract, "*": np.multiply, "%": np.remainder}
_COMPARE_NP = {
    "=": np.equal, "!=": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class KernelContext:
    """Per-forward state: the operator's evaluator (UDF delegation and
    column access, with its own memo) plus the kernel's CSE slot table."""

    __slots__ = ("evaluator", "num_rows", "device", "slots")

    def __init__(self, evaluator: ExpressionEvaluator):
        self.evaluator = evaluator
        self.num_rows = evaluator.num_rows
        self.device = evaluator.device
        self.slots = {}


# ----------------------------------------------------------------------
# Runtime value helpers (mirror the interpreter's Value handling)
# ----------------------------------------------------------------------
def _expand(array: np.ndarray, num_rows: int) -> np.ndarray:
    """Broadcast a literal-derived (1,)-shaped result to the batch length."""
    if array.shape[0] == num_rows:
        return array
    return np.full((num_rows,) + array.shape[1:], array[0], dtype=array.dtype)


def _scalar_array(v) -> np.ndarray:
    # Mirrors ExpressionEvaluator._numeric_tensor's Scalar materialisation,
    # at shape (1,) instead of (n,).
    if isinstance(v, bool):
        return np.full(1, v)
    if isinstance(v, int):
        return np.full(1, v, dtype=np.int64)
    if v is None:
        return np.full(1, np.nan, dtype=np.float32)
    return np.full(1, float(v), dtype=np.float32)


def _num(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value.encoding, DictionaryEncoding):
        raise ExecutionError("arithmetic on string columns is not supported")
    return value.tensor.detach().data


def _bool_data(value) -> np.ndarray:
    data = value.tensor.detach().data if isinstance(value, Column) else value
    if data.dtype.kind != "b":
        raise ExecutionError(f"expected boolean operand, got {data.dtype}")
    return data


def _require_string_column(value) -> Column:
    if not isinstance(value, Column):
        raise KernelFallback("string kernel on non-column value")
    return value


def _float32(array: np.ndarray) -> np.ndarray:
    # Mirrors _to_float: ops.astype(tensor, float32) for non-float inputs.
    if array.dtype.kind != "f":
        return array.astype(np.float32)
    return array


def _div(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Mirrors tcr ops.div: integer/integer division materialises float32.
    if is_int(x.dtype) and is_int(y.dtype):
        return np.true_divide(x, y).astype(np.float32)
    return np.true_divide(x, y)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Mirrors tcr ops.sigmoid's numerically stable formula + dtype restore.
    data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return data.astype(x.dtype, copy=False)


# Per-encoding memoised lookups (same values as DictionaryEncoding.code_for /
# range_for, which rebuild a str-typed dictionary view per call).
def _sorted_strs(encoding: DictionaryEncoding) -> np.ndarray:
    strs = encoding.__dict__.get("_strs_memo")
    if strs is None:
        strs = encoding.strings.astype(str)
        encoding.__dict__["_strs_memo"] = strs
    return strs


def _code_for(encoding: DictionaryEncoding, literal: str) -> Optional[int]:
    memo = encoding.__dict__.setdefault("_code_memo", {})
    hit = memo.get(literal, _MISSING)
    if hit is _MISSING:
        strs = _sorted_strs(encoding)
        idx = int(np.searchsorted(strs, literal))
        hit = idx if idx < encoding.cardinality and strs[idx] == literal else None
        memo[literal] = hit
    return hit


def _range_for(encoding: DictionaryEncoding, literal: str, side: str) -> int:
    memo = encoding.__dict__.setdefault("_range_memo", {})
    key = (literal, side)
    boundary = memo.get(key)
    if boundary is None:
        boundary = int(np.searchsorted(_sorted_strs(encoding), literal, side=side))
        memo[key] = boundary
    return boundary


def _dict_literal_mask(column: Column, op: str, literal: str) -> np.ndarray:
    # Mirrors _compare_dict_literal (including the <=/"right"-boundary and
    # >/" >= boundary" asymmetries) plus the datetime literal path.
    encoding = column.encoding
    codes = column.tensor.detach().data
    if isinstance(encoding, DatetimeEncoding):
        return date_kernels.compare_datetime_literal(codes, op, literal)
    if not isinstance(encoding, DictionaryEncoding):
        raise KernelFallback("string compare on non-dictionary column")
    if op in ("=", "!="):
        code = _code_for(encoding, literal)
        if code is None:
            mask = np.zeros(codes.shape[0], dtype=bool)
        else:
            mask = codes == code
        if op == "!=":
            mask = ~mask
        return mask
    boundary = _range_for(encoding, literal,
                          "left" if op in ("<", ">=") else "right")
    if op in ("<", "<="):
        return codes < boundary
    return codes >= boundary


def _dict_columns_mask(op: str, left: Column, right: Column) -> np.ndarray:
    left = _require_string_column(left)
    right = _require_string_column(right)
    if isinstance(left.encoding, DatetimeEncoding) \
            and isinstance(right.encoding, DatetimeEncoding):
        # The interpreter's numeric fall-through compares the nanos carriers.
        return _COMPARE_NP[op](left.tensor.detach().data,
                               right.tensor.detach().data)
    if not isinstance(left.encoding, DictionaryEncoding) \
            or not isinstance(right.encoding, DictionaryEncoding):
        raise KernelFallback("string compare on non-dictionary columns")
    if left.encoding == right.encoding:
        return _COMPARE_NP[op](left.tensor.detach().data,
                               right.tensor.detach().data)
    return _COMPARE_NP[op](left.decode().astype(str), right.decode().astype(str))


def _in_codes(encoding: DictionaryEncoding, values) -> np.ndarray:
    try:
        key = tuple(values)
        memo = encoding.__dict__.setdefault("_in_memo", {})
        hit = memo.get(key)
    except TypeError:
        key, memo, hit = None, None, None
    if hit is None:
        codes = [_code_for(encoding, str(v)) for v in values]
        hit = np.asarray([c for c in codes if c is not None], dtype=np.int64)
        if memo is not None:
            memo[key] = hit
    return hit


def _string_kind(expr: b.BoundExpr) -> bool:
    data_type = getattr(expr, "data_type", None)
    return getattr(data_type, "kind", None) == "string"


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
class ExprCompiler:
    """Lowers one bound expression tree to a closure ``fn(ctx) -> value``
    where value is an ``np.ndarray`` (numeric/bool data) or a ``Column``
    (string/UDF results). Compile-time constants stay :class:`Scalar` and
    are materialised by the consumer exactly as the interpreter would."""

    def compile(self, expr: b.BoundExpr):
        method = getattr(self, f"_compile_{type(expr).__name__}", None)
        if method is None:
            raise UnsupportedExpr(type(expr).__name__)
        compiled = method(expr)
        if isinstance(compiled, Scalar):
            return compiled
        return self._slotted(_structural_key(expr), compiled)

    @staticmethod
    def _slotted(key, fn):
        """Runtime CSE: structurally identical subtrees evaluate once per
        forward, mirroring the interpreter's per-pass memo."""
        if key is None:
            return fn

        def cached(ctx):
            hit = ctx.slots.get(key, _MISSING)
            if hit is _MISSING:
                hit = fn(ctx)
                ctx.slots[key] = hit
            return hit
        return cached

    def _once(self, expr, compiled):
        """Share one subtree's runtime value between two uses (BETWEEN),
        even when it has no structural key (non-deterministic UDFs)."""
        if isinstance(compiled, Scalar) or _structural_key(expr) is not None:
            return compiled
        return self._slotted(("once", id(compiled)), compiled)

    # -- value adapters -------------------------------------------------
    @staticmethod
    def _num_fn(compiled) -> Callable:
        if isinstance(compiled, Scalar):
            value = compiled.value
            try:
                array = _scalar_array(value)
            except (TypeError, ValueError):
                # e.g. float('abc'): the interpreter raises while
                # materialising at run time — defer, don't fail the plan.
                return lambda ctx: _scalar_array(value)
            return lambda ctx: array
        return lambda ctx: _num(compiled(ctx))

    @staticmethod
    def _bool_fn(compiled) -> Callable:
        if isinstance(compiled, Scalar):
            array = np.full(1, bool(compiled.value))
            return lambda ctx: array
        return lambda ctx: _bool_data(compiled(ctx))

    @staticmethod
    def _mask_fn(compiled) -> Callable:
        # Mirrors evaluate_mask (full-length mask, bool dtype enforced).
        if isinstance(compiled, Scalar):
            value = bool(compiled.value)
            return lambda ctx: np.full(ctx.num_rows, value)

        def fn(ctx):
            data = compiled(ctx)
            data = data.tensor.detach().data if isinstance(data, Column) else data
            if data.dtype.kind != "b":
                raise ExecutionError(
                    f"predicate evaluated to {data.dtype}, expected bool")
            return _expand(data, ctx.num_rows)
        return fn

    # -- leaves ---------------------------------------------------------
    def _compile_BColumn(self, expr: b.BColumn):
        # Column access goes through the evaluator: char-code normalisation,
        # gather laziness (_GatherEvaluator) and lineage stay identical.
        return lambda ctx: ctx.evaluator.evaluate(expr)

    def _compile_BLiteral(self, expr: b.BLiteral):
        return Scalar(expr.value)

    # -- operators ------------------------------------------------------
    def _compile_BBinary(self, expr: b.BBinary):
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if isinstance(left, Scalar) and isinstance(right, Scalar):
            return Scalar(fold_scalars(op, left.value, right.value))
        if op in ("AND", "OR"):
            np_fn = np.logical_and if op == "AND" else np.logical_or
            lf, rf = self._bool_fn(left), self._bool_fn(right)
            return lambda ctx: np_fn(lf(ctx), rf(ctx))
        if op in _COMPARE_NP:
            return self._compile_compare(op, expr.left, left, expr.right, right)
        if op not in _ARITH_NP and op != "/":
            raise UnsupportedExpr(f"binary op {op}")
        lf, rf = self._num_fn(left), self._num_fn(right)
        if op == "/":
            return lambda ctx: _div(lf(ctx), rf(ctx))
        np_fn = _ARITH_NP[op]
        return lambda ctx: np_fn(lf(ctx), rf(ctx))

    def _compile_compare(self, op, left_expr, left, right_expr, right):
        # Mirrors _compare's runtime dispatch, resolved at plan time via the
        # binder's types; encoding mismatches at run time fall back.
        left_str = _string_kind(left_expr)
        right_str = _string_kind(right_expr)
        if left_str and not isinstance(left, Scalar) \
                and isinstance(right, Scalar) and isinstance(right.value, str):
            literal = right.value
            return lambda ctx: _dict_literal_mask(
                _require_string_column(left(ctx)), op, literal)
        if left_str and right_str and not isinstance(left, Scalar) \
                and not isinstance(right, Scalar):
            return lambda ctx: _dict_columns_mask(op, left(ctx), right(ctx))
        if right_str and not isinstance(right, Scalar) \
                and isinstance(left, Scalar) and isinstance(left.value, str):
            literal, flipped = left.value, _FLIPPED[op]
            return lambda ctx: _dict_literal_mask(
                _require_string_column(right(ctx)), flipped, literal)
        lf, rf = self._num_fn(left), self._num_fn(right)
        np_fn = _COMPARE_NP[op]
        return lambda ctx: np_fn(lf(ctx), rf(ctx))

    def _compile_BUnary(self, expr: b.BUnary):
        operand = self.compile(expr.operand)
        if expr.op == "NOT":
            if isinstance(operand, Scalar):
                return Scalar(not bool(operand.value))
            of = self._bool_fn(operand)
            return lambda ctx: np.logical_not(of(ctx))
        if isinstance(operand, Scalar):
            return Scalar(-operand.value)
        of = self._num_fn(operand)
        return lambda ctx: np.negative(of(ctx))

    def _compile_BCall(self, expr: b.BCall):
        # UDFs are opaque column inputs: the evaluator owns invocation,
        # micro-batching and the materialization-cache protocol.
        return lambda ctx: ctx.evaluator.evaluate(expr)

    def _compile_BBuiltin(self, expr: b.BBuiltin):
        name = expr.name
        if name in ("UPPER", "LOWER", "LENGTH", "TRIM"):
            return self._compile_string_builtin(name, expr.args[0])
        if name in ("SUBSTR", "SUBSTRING"):
            return self._compile_substr(expr)
        args = [self._num_fn(self.compile(a)) for a in expr.args]
        if name == "COALESCE":
            def coalesce(ctx):
                result = args[0](ctx)
                for fn in args[1:]:
                    if result.dtype.kind != "f":
                        break   # non-float carries no NULLs (interpreter parity)
                    result = np.where(np.isnan(result), fn(ctx), result)
                return result
            return coalesce
        if name == "ABS":
            return lambda ctx: np.abs(args[0](ctx))
        if name == "SQRT":
            return lambda ctx: np.sqrt(_float32(args[0](ctx)))
        if name == "EXP":
            return lambda ctx: np.exp(_float32(args[0](ctx)))
        if name in ("LN", "LOG"):
            return lambda ctx: np.log(_float32(args[0](ctx)))
        if name in ("POW", "POWER"):
            return lambda ctx: np.power(_float32(args[0](ctx)), args[1](ctx))
        if name == "ROUND":
            if len(args) == 2:
                def round2(ctx):
                    digits_arr = args[1](ctx).reshape(-1)
                    # Zero-row inputs have no digits value to read; any
                    # factor yields the same empty output.
                    digits = float(digits_arr[0]) if digits_arr.size else 0.0
                    # float32 like tcr's ensure_tensor-wrapped python scalar,
                    # so float32 operands stay float32.
                    factor = np.asarray(10.0 ** digits, dtype=np.float32)
                    return np.true_divide(
                        np.round(np.multiply(args[0](ctx), factor)), factor)
                return round2
            return lambda ctx: np.round(args[0](ctx))
        if name == "FLOOR":
            return lambda ctx: np.floor(args[0](ctx))
        if name == "CEIL":
            return lambda ctx: np.ceil(args[0](ctx))
        if name in ("LEAST", "GREATEST"):
            np_fn = np.minimum if name == "LEAST" else np.maximum

            def chain(ctx):
                result = args[0](ctx)
                for fn in args[1:]:
                    result = np_fn(result, fn(ctx))
                return result
            return chain
        if name == "SIGMOID":
            return lambda ctx: _sigmoid(_float32(args[0](ctx)))
        raise UnsupportedExpr(f"builtin {name}")

    def _compile_string_builtin(self, name: str, arg_expr: b.BoundExpr):
        arg = self.compile(arg_expr)
        if isinstance(arg, Scalar):
            text = str(arg.value)
            if name == "UPPER":
                return Scalar(text.upper())
            if name == "LOWER":
                return Scalar(text.lower())
            if name == "TRIM":
                return Scalar(text.strip())
            return Scalar(len(text))
        if name == "TRIM":
            def trim(ctx):
                column = _require_string_column(arg(ctx))
                if not isinstance(column.encoding, DictionaryEncoding):
                    raise KernelFallback("TRIM on non-dictionary column")
                encoding, remap = string_kernels.string_transform(
                    column.encoding, "trim", lambda s: s.strip())
                codes = remap[column.tensor.detach().data]
                return Column("", EncodedTensor(
                    Tensor(codes, device=ctx.device), encoding))
            return trim
        if name == "LENGTH":
            def length(ctx):
                column = _require_string_column(arg(ctx))
                if not isinstance(column.encoding, DictionaryEncoding):
                    raise KernelFallback("LENGTH on non-dictionary column")
                lengths = string_kernels.length_transform(column.encoding)
                return lengths[column.tensor.detach().data]
            return length
        upper = name == "UPPER"

        def case(ctx):
            column = _require_string_column(arg(ctx))
            if not isinstance(column.encoding, DictionaryEncoding):
                raise KernelFallback("UPPER/LOWER on non-dictionary column")
            encoding, remap = string_kernels.case_transform(column.encoding, upper)
            codes = remap[column.tensor.detach().data]
            return Column("", EncodedTensor(Tensor(codes, device=ctx.device),
                                            encoding))
        return case

    def _compile_substr(self, expr: b.BBuiltin):
        arg = self.compile(expr.args[0])
        params = [self.compile(a) for a in expr.args[1:]]
        if not all(isinstance(p, Scalar) for p in params):
            # The interpreter rejects non-constant bounds too; no fallback
            # would help, but plan-time rejection keeps the error message.
            raise UnsupportedExpr("SUBSTR with non-constant start/length")
        start = int(params[0].value)
        length = int(params[1].value) if len(params) > 1 else None
        if isinstance(arg, Scalar):
            return Scalar(string_kernels.substr_value(str(arg.value), start, length))
        key = ("substr", start, length)

        def substr(ctx):
            column = _require_string_column(arg(ctx))
            if not isinstance(column.encoding, DictionaryEncoding):
                raise KernelFallback("SUBSTR on non-dictionary column")
            encoding, remap = string_kernels.string_transform(
                column.encoding, key,
                lambda s: string_kernels.substr_value(s, start, length))
            codes = remap[column.tensor.detach().data]
            return Column("", EncodedTensor(
                Tensor(codes, device=ctx.device), encoding))
        return substr

    def _compile_BBetween(self, expr: b.BBetween):
        operand = self._once(expr.operand, self.compile(expr.operand))
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        # BETWEEN never folds (the interpreter compares materialised arrays
        # even for all-scalar operands), so scalar operands materialise here.
        low_ok = self._compile_compare(">=", expr.operand, operand,
                                       expr.low, low)
        high_ok = self._compile_compare("<=", expr.operand, operand,
                                        expr.high, high)
        negated = expr.negated

        def fn(ctx):
            mask = np.logical_and(low_ok(ctx), high_ok(ctx))
            return np.logical_not(mask) if negated else mask
        return fn

    def _compile_BIn(self, expr: b.BIn):
        operand = self.compile(expr.operand)
        negated = expr.negated
        if isinstance(operand, Scalar):
            return Scalar((operand.value in expr.values) != negated)
        values = list(expr.values)
        plain_values = np.asarray(values)

        def fn(ctx):
            value = operand(ctx)
            if isinstance(value, Column):
                if isinstance(value.encoding, DictionaryEncoding):
                    mask = np.isin(value.tensor.detach().data,
                                   _in_codes(value.encoding, values))
                else:
                    mask = np.isin(value.tensor.detach().data, plain_values)
            else:
                mask = np.isin(value, plain_values)
            return ~mask if negated else mask
        return fn

    def _compile_BLike(self, expr: b.BLike):
        operand = self.compile(expr.operand)
        pattern, negated = expr.pattern, expr.negated
        if isinstance(operand, Scalar):
            matched = _like_to_regex(pattern).fullmatch(str(operand.value)) is not None
            return Scalar(matched != negated)

        def fn(ctx):
            column = _require_string_column(operand(ctx))
            if not isinstance(column.encoding, DictionaryEncoding):
                raise KernelFallback("LIKE on non-dictionary column")
            mask = string_kernels.like_mask(column.encoding,
                                            column.tensor.detach().data, pattern)
            return ~mask if negated else mask
        return fn

    def _compile_BIsNull(self, expr: b.BIsNull):
        operand = self.compile(expr.operand)
        negated = expr.negated
        if isinstance(operand, Scalar):
            return Scalar((operand.value is None) != negated)

        def fn(ctx):
            value = operand(ctx)
            data = value.tensor.detach().data if isinstance(value, Column) else value
            if data.dtype.kind == "f":
                mask = np.isnan(data)
                if data.ndim > 1:
                    mask = mask.reshape(data.shape[0], -1).any(axis=1)
            else:
                mask = np.zeros(data.shape[0], dtype=bool)
            return ~mask if negated else mask
        return fn

    def _compile_BCase(self, expr: b.BCase):
        whens = [(self._mask_fn(self.compile(cond)),
                  self._num_fn(self.compile(value)))
                 for cond, value in expr.whens]
        else_fn = None
        if expr.else_ is not None:
            else_fn = self._num_fn(self.compile(expr.else_))
        # tcr's ensure_tensor canonicalizes the python 0.0 to a float32 0-d
        # tensor, so a float32 branch stays float32 (and an int branch
        # promotes to float64) exactly as under the interpreter.
        zero = np.asarray(0.0, dtype=np.float32)

        def fn(ctx):
            result = None
            taken = None
            for cond_fn, branch_fn in whens:
                mask = cond_fn(ctx)
                branch = branch_fn(ctx)
                if result is None:
                    result = np.where(mask, branch, np.multiply(branch, zero))
                    taken = mask
                else:
                    fresh = np.logical_and(mask, np.logical_not(taken))
                    result = np.where(fresh, branch, result)
                    taken = np.logical_or(taken, mask)
            if else_fn is not None:
                result = np.where(taken, result, else_fn(ctx))
            return result
        return fn

    def _compile_BCast(self, expr: b.BCast):
        operand = self.compile(expr.operand)
        target = expr.data_type
        if isinstance(operand, Scalar):
            return Scalar(_cast_scalar(operand.value, target))
        if target.kind == "string":
            # Mirror the interpreter exactly: decode (identity for plain
            # numeric data, strings for dictionaries) then str() per row —
            # same np scalar types in, so identical text out.
            def to_string(ctx):
                value = operand(ctx)
                if isinstance(value, Column):
                    decoded = value.decode()
                else:
                    # (1,)-shaped literal-derived arrays expand here; string
                    # columns are always full-length already.
                    decoded = _expand(value, ctx.num_rows)
                strings = np.asarray([str(v) for v in decoded], dtype=object)
                return Column.from_values("", strings, device=ctx.device)
            return to_string
        np_dtype = {"int": np.int64, "float": np.float32,
                    "bool": np.bool_}.get(target.kind)
        if np_dtype is None:
            raise UnsupportedExpr(f"CAST to {target.kind}")

        def fn(ctx):
            value = operand(ctx)
            if isinstance(value, Column):
                if isinstance(value.encoding, DictionaryEncoding):
                    return value.decode().astype(np.float64).astype(np_dtype)
                return value.tensor.detach().data.astype(np_dtype)
            return value.astype(np_dtype)
        return fn


# ----------------------------------------------------------------------
# Operator-level kernels
# ----------------------------------------------------------------------
class FilterKernel:
    """A compiled conjunct list → one boolean row mask per forward."""

    def __init__(self, mask_fns: List[Callable]):
        self._mask_fns = mask_fns

    def mask(self, evaluator: ExpressionEvaluator) -> np.ndarray:
        ctx = KernelContext(evaluator)
        mask = self._mask_fns[0](ctx)
        for fn in self._mask_fns[1:]:
            mask = mask & fn(ctx)
        return mask


class ProjectKernel:
    """A compiled projection list → output columns per forward."""

    def __init__(self, column_fns: List[Callable]):
        self._column_fns = column_fns

    def columns(self, evaluator: ExpressionEvaluator) -> List[Column]:
        ctx = KernelContext(evaluator)
        return [fn(ctx) for fn in self._column_fns]


def _column_fn(compiled, name: str) -> Callable:
    """Mirror evaluate_column/materialize for one projection item."""
    if isinstance(compiled, Scalar):
        constant = compiled.value
        if isinstance(constant, str):
            def str_fn(ctx):
                values = np.array([constant] * ctx.num_rows, dtype=object)
                return Column.from_values(name, values, device=ctx.device)
            return str_fn
        if isinstance(constant, bool):
            dtype, value = np.bool_, constant
        elif isinstance(constant, int):
            dtype, value = np.int64, constant
        elif constant is None:
            dtype, value = np.float32, np.nan
        else:
            dtype, value = np.float32, float(constant)

        def const_fn(ctx):
            array = np.full(ctx.num_rows, value, dtype=dtype)
            return Column(name, EncodedTensor(Tensor(array, device=ctx.device),
                                              PlainEncoding()))
        return const_fn

    def fn(ctx):
        value = compiled(ctx)
        if isinstance(value, Column):
            return value.rename(name) if name else value
        array = _expand(value, ctx.num_rows)
        # dtype pinned: the bare Tensor constructor canonicalizes float64 to
        # float32, but interpreter results flow through Tensor._make, which
        # preserves op output dtypes — the kernel must too.
        return Column(name, EncodedTensor(
            Tensor(array, device=ctx.device, dtype=array.dtype),
            PlainEncoding()))
    return fn


def compile_filter(predicates: Sequence[b.BoundExpr]) -> Optional[FilterKernel]:
    """Compile a conjunct list; None when any conjunct is unsupported."""
    compiler = ExprCompiler()
    try:
        fns = [compiler._mask_fn(compiler.compile(p)) for p in predicates]
    except UnsupportedExpr:
        return None
    return FilterKernel(fns)


def compile_projection(exprs: Sequence[b.BoundExpr],
                       names: Sequence[str]) -> Optional[ProjectKernel]:
    """Compile a projection list; None when any expression is unsupported."""
    compiler = ExprCompiler()
    try:
        fns = [_column_fn(compiler.compile(e), name)
               for e, name in zip(exprs, names)]
    except UnsupportedExpr:
        return None
    return ProjectKernel(fns)


class StageKernel(NamedTuple):
    """The compiled body of one pipeline stage; a part the stage does not
    have (no conjuncts, or no projection) is None."""
    filter: Optional[FilterKernel]
    project: Optional[ProjectKernel]


def compile_stage(predicates: Sequence[b.BoundExpr],
                  exprs: Optional[Sequence[b.BoundExpr]],
                  names: Optional[Sequence[str]]) -> Optional[StageKernel]:
    """Compile one pipeline stage; None (the stage stays on the interpreter)
    when any of its expressions is unsupported."""
    filter_kernel = project_kernel = None
    if predicates:
        filter_kernel = compile_filter(predicates)
        if filter_kernel is None:
            return None
    if exprs is not None:
        project_kernel = compile_projection(exprs, names)
        if project_kernel is None:
            return None
    return StageKernel(filter_kernel, project_kernel)
