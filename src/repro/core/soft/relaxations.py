"""Continuous relaxations of discrete predicates (paper §4).

The paper cites logistic relaxations of step functions [28, 43]: a predicate
``x > t`` becomes ``sigmoid(tau * (x - t))``, a row *weight* in (0, 1) that
downstream soft aggregates treat as fractional membership. Boolean algebra
maps to product/probabilistic-sum, the standard t-norm/t-conorm pair.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.core.kernels.compiler import ExprCompiler
from repro.sql import bound as b
from repro.tcr import ops
from repro.tcr.tensor import Tensor


def soft_predicate(expr: b.BoundExpr, lowering: ExprCompiler,
                   temperature: float) -> Callable:
    """Lower a predicate to ``fn(ctx) -> Tensor`` of differentiable row
    weights in (0, 1). ``lowering`` must be over tcr ops, or no gradient
    reaches the operands."""
    def relax(sub: b.BoundExpr) -> Callable:
        return soft_predicate(sub, lowering, temperature)

    if isinstance(expr, b.BBinary):
        if expr.op in ("AND", "OR"):
            left, right = relax(expr.left), relax(expr.right)
            if expr.op == "AND":
                return lambda ctx: left(ctx) * right(ctx)

            def either(ctx):
                lw, rw = left(ctx), right(ctx)
                return lw + rw - lw * rw
            return either
        if expr.op in (">", ">=", "<", "<=", "=", "!="):
            return _soft_compare(expr, lowering, temperature)
        raise ExecutionError(f"cannot relax operator {expr.op!r}")
    if isinstance(expr, b.BUnary) and expr.op == "NOT":
        operand = relax(expr.operand)
        return lambda ctx: 1.0 - operand(ctx)
    if isinstance(expr, b.BBetween):
        low = relax(b.BBinary(">=", expr.operand, expr.low, expr.data_type))
        high = relax(b.BBinary("<=", expr.operand, expr.high, expr.data_type))
        if expr.negated:
            return lambda ctx: 1.0 - low(ctx) * high(ctx)
        return lambda ctx: low(ctx) * high(ctx)
    # Fall back to the hard boolean result as 0/1 weights (no gradient).
    mask = lowering.mask(expr)
    return lambda ctx: Tensor(mask(ctx).astype(np.float32), device=ctx.device)


def _soft_compare(expr: b.BBinary, lowering: ExprCompiler,
                  temperature: float) -> Callable:
    left = _float_tensor(lowering, expr.left)
    right = _float_tensor(lowering, expr.right)
    op = expr.op

    def fn(ctx):
        diff = left(ctx) - right(ctx)
        if op in (">", ">="):
            return ops.sigmoid(diff * temperature)
        if op in ("<", "<="):
            return ops.sigmoid(-diff * temperature)
        # Equality: Gaussian kernel peaked at 0 difference.
        closeness = ops.exp(-(diff * diff) * temperature)
        return 1.0 - closeness if op == "!=" else closeness
    return fn


def _float_tensor(lowering: ExprCompiler, expr: b.BoundExpr) -> Callable:
    """One compare operand as a full-length float tensor."""
    numeric = lowering.numeric(expr)

    def fn(ctx):
        tensor = ctx.materialize(numeric(ctx)).tensor
        if tensor.dtype.kind != "f":
            tensor = ops.astype(tensor, np.float32)
        return tensor
    return fn
