"""Multi-way differential runner: serial, sharded and tcr-ops engine legs,
plus the miniduck oracle.

``run_differential(seed, count)`` executes every generated statement:

1. engine ``shards=1`` (exact plans lower over numpy on detached data):
   the base every other engine leg is compared **bitwise** against;
2. engine ``shards=4``: only the scans that feed a join shard, and the
   caller lowers ``partition.PARALLEL_MIN_ROWS`` so even small tables
   actually split. Sharded execution must be indistinguishable from
   serial; ``sharded_checked`` counts the statements whose shard legs
   really split a scan;
3. engine ``shards=3``: an odd shard count, so shard boundaries fall at
   uneven row offsets;
4. the tcr-ops leg: 1. with the same lowering over tcr ops
   (``tcr_lowering.query_over_tcr``, the namespace trainable plans use).
   The two namespaces must be bitwise-indistinguishable. Trainable plans
   never shard, so tcr ops need no shard leg;
5. for a join statement, the ``no-pushdown`` leg: 1. with the pushdown
   rule off, so a WHERE stays above the join instead of reaching it as its
   inputs' selections. The oracle has no joins, so this is the leg whose
   join inputs differ; compared bitwise after order normalisation on every
   output column;
6. the ``baselines.miniduck`` oracle — compared after order normalisation
   on the statement's exact-typed key columns, NaN-aware, with the float
   tolerance documented in ``ALLOWLIST``.

Failures carry the seed, case index and SQL; reproduce with
``python tests/differential/diffrun.py --seed S --count N`` (see README.md).

ALLOWLIST — benign engine/oracle differences accepted by the comparator,
each with its justification; anything outside these is a failure:

* ``float-precision``: the engine materialises float results as float32
  (tensor-runtime convention) and reduces float aggregates with
  vectorised/pairwise accumulators, while miniduck computes in float64 with
  ``np.add.at`` ordering. Same math, different precision and summation
  order — float comparisons therefore use ``rtol=1e-4, atol=1e-6`` against
  the float64-cast values instead of bit equality. (Engine-vs-engine
  comparisons are still bitwise; the tolerance applies only to the oracle.)
* ``int-widening``: miniduck computes every aggregate in float64, so an
  engine int64 SUM/MIN/MAX compares against a float64 oracle value;
  the comparator casts both to float64, exact up to 2^53 (generated values
  keep sums far below that).
* ``nan-vs-null``: both systems model NULL as NaN; NaN outputs compare
  equal positionally (``equal_nan``), and predicates drop NaN rows in both.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.dirname(_HERE)]
from diffgen import DiffStatement, gen_statements, gen_tables  # noqa: E402
from tcr_lowering import query_over_tcr  # noqa: E402

from repro.baselines.miniduck import MiniDuck  # noqa: E402
from repro.core import partition  # noqa: E402
from repro.core.session import Session  # noqa: E402
from repro.errors import TdpError  # noqa: E402


def _on_engine(extra):
    return lambda session, sql: session.sql.query(sql, extra_config=extra)


ENGINE_LEGS = [
    ("shards=4", _on_engine({"shards": 4})),
    ("odd shards=3", _on_engine({"shards": 3})),
    ("tcr ops", query_over_tcr),
]
NO_PUSHDOWN = _on_engine({"disable_rules": ["pushdown"]})
FLOAT_RTOL = 1e-4
FLOAT_ATOL = 1e-6


class Divergence(Exception):
    """One differential failure, annotated with its reproduction recipe."""

    def __init__(self, seed: int, case: int, stmt: DiffStatement, detail: str):
        self.seed = seed
        self.case = case
        self.stmt = stmt
        self.detail = detail
        super().__init__(
            f"seed={seed} case={case}\n  sql: {stmt.sql}\n  {detail}\n"
            f"  reproduce: python tests/differential/diffrun.py "
            f"--seed {seed} --case {case}"
        )


def _engine_result(session: Session, sql: str,
                   compile_=_on_engine(None)) -> Dict[str, np.ndarray]:
    result = compile_(session, sql).run()
    return {name: np.asarray(result.column(name))
            for name in result.column_names}


def _oracle_result(duck: MiniDuck, sql: str) -> Dict[str, np.ndarray]:
    frame = duck.execute(sql)
    return {name: np.asarray(frame[name]) for name in frame.columns}


# ----------------------------------------------------------------------
# Comparators
# ----------------------------------------------------------------------
def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "f":
        return bool(np.array_equal(a, b, equal_nan=True))
    return bool(np.array_equal(a, b))


def compare_engine_runs(serial: Dict[str, np.ndarray],
                        other: Dict[str, np.ndarray],
                        label: str = "shards=4") -> Optional[str]:
    """Bitwise comparison (the shard/namespace-invariance contract). Returns
    a description of the first difference, or None."""
    if list(serial) != list(other):
        return f"column sets differ: {list(serial)} vs {list(other)}"
    for name in serial:
        if not _bitwise_equal(serial[name], other[name]):
            return (f"column {name!r} differs between base and {label}: "
                    f"{serial[name][:8]!r} vs {other[name][:8]!r}")
    return None


def _normalised(result: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """``result``'s rows sorted on every column (rows equal on all of them
    are interchangeable)."""
    order = _sort_order(result, list(result))
    return {name: values[order] for name, values in result.items()}


def _sort_order(result: Dict[str, np.ndarray], keys: List[str]) -> np.ndarray:
    n = len(next(iter(result.values()))) if result else 0
    arrays = []
    for key in reversed(keys):
        values = result[key]
        if values.dtype.kind in ("U", "S", "O"):
            arrays.append(np.asarray([str(v) for v in values], dtype="U64"))
        else:
            arrays.append(values.astype(np.float64))
    if not arrays:
        return np.arange(n)
    return np.lexsort(tuple(arrays))


def compare_with_oracle(engine: Dict[str, np.ndarray],
                        oracle: Dict[str, np.ndarray],
                        stmt: DiffStatement) -> Optional[str]:
    if list(engine) != list(oracle):
        return f"column sets differ: {list(engine)} vs {list(oracle)}"
    if len({len(v) for v in engine.values()}) > 1:
        return "engine produced ragged columns"
    if len(next(iter(engine.values()), ())) != len(next(iter(oracle.values()), ())):
        return (f"row counts differ: engine "
                f"{len(next(iter(engine.values())))} vs oracle "
                f"{len(next(iter(oracle.values())))}")
    if stmt.ordered:
        eng, orc = engine, oracle
    else:
        keys = [k for k in stmt.sort_keys if k in engine] or list(engine)
        eng_order = _sort_order(engine, keys)
        orc_order = _sort_order(oracle, keys)
        eng = {k: v[eng_order] for k, v in engine.items()}
        orc = {k: v[orc_order] for k, v in oracle.items()}
    for name in eng:
        a, b = eng[name], orc[name]
        if a.dtype.kind in ("U", "S", "O") or b.dtype.kind in ("U", "S", "O"):
            if not np.array_equal(np.asarray([str(v) for v in a]),
                                  np.asarray([str(v) for v in b])):
                return f"string column {name!r}: {a[:8]!r} vs {b[:8]!r}"
            continue
        af = a.astype(np.float64)
        bf = b.astype(np.float64)
        if not np.allclose(af, bf, rtol=FLOAT_RTOL, atol=FLOAT_ATOL,
                           equal_nan=True):
            worst = np.nanmax(np.abs(af - bf)) if af.size else 0.0
            return (f"column {name!r} diverges (max abs diff {worst:g}): "
                    f"{a[:8]!r} vs {b[:8]!r}")
    return None


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_differential(seed: int, count: int = 120,
                     only_case: Optional[int] = None,
                     verbose: bool = False) -> dict:
    """Run one seed's statement stream; raises Divergence on the first
    failure. Returns counters for reporting/asserting coverage."""
    tables = gen_tables(seed)
    session = Session()
    duck = MiniDuck()
    for name, data in tables.items():
        session.sql.register_dict(dict(data), name)
        duck.register(name, dict(data))
    statements = gen_statements(seed, count)
    stats = {"statements": 0, "oracle_checked": 0, "oracle_skipped": 0,
             "engine_only": 0, "tcr_checked": 0, "odd_shards_checked": 0,
             "sharded_checked": 0, "no_pushdown_checked": 0}
    for case, stmt in enumerate(statements):
        if only_case is not None and case != only_case:
            continue
        stats["statements"] += 1
        if verbose:
            print(f"[{seed}:{case}] {stmt.sql}")
        try:
            serial = _engine_result(session, stmt.sql)
            batches = session.shard_pool.stats["batches"]
            for label, compile_ in ENGINE_LEGS:
                other = _engine_result(session, stmt.sql, compile_)
                detail = compare_engine_runs(serial, other, label)
                if detail is not None:
                    raise Divergence(seed, case, stmt, detail)
                if label == "tcr ops":
                    stats["tcr_checked"] += 1
                elif "odd" in label:
                    stats["odd_shards_checked"] += 1
            if session.shard_pool.stats["batches"] > batches:
                stats["sharded_checked"] += 1
            if " JOIN " in stmt.sql:
                other = _engine_result(session, stmt.sql, NO_PUSHDOWN)
                detail = compare_engine_runs(_normalised(serial),
                                             _normalised(other), "no-pushdown")
                if detail is not None:
                    raise Divergence(seed, case, stmt, detail)
                stats["no_pushdown_checked"] += 1
        except TdpError as exc:
            raise Divergence(seed, case, stmt,
                             f"engine rejected generated statement: {exc}")
        if not stmt.oracle:
            stats["engine_only"] += 1
            continue
        try:
            oracle = _oracle_result(duck, stmt.sql)
        except TdpError as exc:
            # The oracle's surface is narrower by design; skips are counted
            # and bounded by the caller so grammar drift cannot silently
            # hollow out the oracle comparison.
            stats["oracle_skipped"] += 1
            if verbose:
                print(f"    oracle skip: {exc}")
            continue
        stats["oracle_checked"] += 1
        detail = compare_with_oracle(serial, oracle, stmt)
        if detail is not None:
            raise Divergence(seed, case, stmt, detail)
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=120)
    parser.add_argument("--case", type=int, default=None,
                        help="run only this case index (reproduction)")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    partition.PARALLEL_MIN_ROWS = 2     # as the tests' ``tiny_shards`` fixture
    try:
        stats = run_differential(args.seed, args.count, only_case=args.case,
                                 verbose=args.verbose)
    except Divergence as exc:
        print(f"DIVERGENCE\n{exc}")
        return 1
    print(f"ok: {stats}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
