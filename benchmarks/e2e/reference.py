"""The outside references: a hand-written numpy floor and miniduck.

:class:`NumpyFloor` answers the five suite statements and the two
``point_http`` statements with straight numpy calls over the same column
layout the engine stores (float32 values, dictionary-coded strings). It is
the correctness oracle for the relational workloads and the cost a statement
would have with no engine around the kernels (``ref.numpy_*``).
:func:`miniduck_suite` runs the single-table statements through
``repro.baselines.miniduck``, the repository's independent SQL engine.

``compare_columns`` is the one comparison rule: integers and strings must be
equal, floats agree to ``FLOAT_RTOL``. The engine stores and multiplies in
float32, accumulates sums in float64 and rounds the result to float32; the
floor does the same arithmetic, so the two differ by result rounding only
(7.5e-8 measured) and the tolerance is four float32 units in the last place.
One wrong row moves a 65k-row group sum by 1.5e-5 of itself, thirty times
the tolerance.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

FLOAT_RTOL = 5e-7


class NumpyFloor:
    def __init__(self, lineitem: Optional[Dict[str, np.ndarray]],
                 orders: Dict[str, np.ndarray]):
        self.dictionaries: Dict[str, np.ndarray] = {}
        self.li = self._ingest(lineitem) if lineitem is not None else None
        self.orders = self._ingest(orders)

    def _ingest(self, table: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        out = {}
        for name, values in table.items():
            values = np.asarray(values)
            if values.dtype.kind == "f":
                out[name] = values.astype(np.float32)
            elif values.dtype.kind == "O":
                words, codes = np.unique(values.astype(str), return_inverse=True)
                self.dictionaries[name] = words.astype(object)
                out[name] = codes.astype(np.int64)
            else:
                out[name] = values.astype(np.int64)
        return out

    # ------------------------------------------------------------------
    # Suite statements (literals from datagen.suite_params)
    # ------------------------------------------------------------------
    def q1(self, p: dict) -> Dict[str, np.ndarray]:
        li = self.li
        rows = np.flatnonzero(li["l_shipdate"] <= p["q1_cutoff"])
        n_status = len(self.dictionaries["l_linestatus"])
        groups = li["l_returnflag"][rows] * n_status + li["l_linestatus"][rows]
        size = len(self.dictionaries["l_returnflag"]) * n_status
        quantity = li["l_quantity"][rows]
        price = li["l_extendedprice"][rows]
        discount = li["l_discount"][rows]
        disc_price = price * (1 - discount)
        charge = disc_price * (1 + li["l_tax"][rows])
        count = np.bincount(groups, minlength=size)

        def total(values):
            return np.bincount(groups, weights=values, minlength=size)

        keep = np.flatnonzero(count)
        sums = {"sum_qty": total(quantity), "sum_base_price": total(price),
                "sum_disc_price": total(disc_price), "sum_charge": total(charge)}
        out = {
            "l_returnflag": self.dictionaries["l_returnflag"][keep // n_status],
            "l_linestatus": self.dictionaries["l_linestatus"][keep % n_status],
        }
        for name, values in sums.items():
            out[name] = values[keep]
        out["avg_qty"] = sums["sum_qty"][keep] / count[keep]
        out["avg_price"] = sums["sum_base_price"][keep] / count[keep]
        out["avg_disc"] = total(discount)[keep] / count[keep]
        out["count_order"] = count[keep]
        return out

    def q6(self, p: dict) -> Dict[str, np.ndarray]:
        li = self.li
        mask = ((li["l_shipdate"] >= p["q6_start"]) & (li["l_shipdate"] < p["q6_end"])
                & (li["l_discount"] >= p["q6_disc_low"])
                & (li["l_discount"] <= p["q6_disc_high"])
                & (li["l_quantity"] < p["q6_quantity"]))
        revenue = np.sum(li["l_extendedprice"][mask] * li["l_discount"][mask],
                         dtype=np.float64)
        return {"revenue": np.asarray([revenue])}

    def _order_rows(self, keys: np.ndarray) -> np.ndarray:
        """Row of ``orders`` for each key (every lineitem key has one)."""
        order = np.argsort(self.orders["o_orderkey"], kind="stable")
        return order[np.searchsorted(self.orders["o_orderkey"], keys, sorter=order)]

    def q3(self, p: dict) -> Dict[str, np.ndarray]:
        li, orders = self.li, self.orders
        rows = np.flatnonzero(li["l_shipdate"] > p["q3_date"])
        matched = self._order_rows(li["l_orderkey"][rows])
        early = orders["o_orderdate"][matched] < p["q3_date"]
        rows, matched = rows[early], matched[early]
        keys, first, inverse = np.unique(li["l_orderkey"][rows],
                                         return_index=True, return_inverse=True)
        revenue = np.bincount(
            inverse, weights=li["l_extendedprice"][rows] * (1 - li["l_discount"][rows]),
            minlength=len(keys))
        top = np.lexsort((keys, -revenue))[:10]
        return {"l_orderkey": keys[top], "revenue": revenue[top],
                "o_orderdate": orders["o_orderdate"][matched[first[top]]],
                "o_shippriority": orders["o_shippriority"][matched[first[top]]]}

    def q12(self, p: dict) -> Dict[str, np.ndarray]:
        li, orders = self.li, self.orders
        words = self.dictionaries["l_shipmode"]
        wanted = np.flatnonzero(np.isin(words, p["q12_modes"]))
        rows = np.flatnonzero(
            np.isin(li["l_shipmode"], wanted)
            & (li["l_commitdate"] < li["l_receiptdate"])
            & (li["l_shipdate"] < li["l_commitdate"])
            & (li["l_receiptdate"] >= p["q12_start"])
            & (li["l_receiptdate"] < p["q12_end"]))
        matched = self._order_rows(li["l_orderkey"][rows])
        modes = li["l_shipmode"][rows]
        count = np.bincount(modes, minlength=len(words))
        priority = np.bincount(modes, weights=orders["o_shippriority"][matched],
                               minlength=len(words))
        keep = np.flatnonzero(count)
        return {"l_shipmode": words[keep], "line_count": count[keep],
                "priority_sum": priority[keep].astype(np.int64)}

    def topk(self, p: dict) -> Dict[str, np.ndarray]:
        price = self.li["l_extendedprice"]
        k = min(p["topk"], len(price))
        candidates = np.argpartition(-price, k - 1)[:k]
        top = candidates[np.argsort(-price[candidates], kind="stable")]
        return {"l_orderkey": self.li["l_orderkey"][top],
                "l_extendedprice": price[top]}

    def suite(self, p: dict) -> Dict[str, Dict[str, np.ndarray]]:
        return {"q1": self.q1(p), "q6": self.q6(p), "q3": self.q3(p),
                "q12": self.q12(p), "topk": self.topk(p)}

    # ------------------------------------------------------------------
    # point_http statements
    # ------------------------------------------------------------------
    def point(self, key: int, columns) -> Dict[str, np.ndarray]:
        rows = np.flatnonzero(self.orders["o_orderkey"] == key)
        return {name: self.orders[name][rows] for name in columns}

    def wide(self, low: int, rows: int, columns) -> Dict[str, np.ndarray]:
        keys = self.orders["o_orderkey"]
        hit = np.flatnonzero((keys >= low) & (keys < low + rows))
        return {name: self.orders[name][hit] for name in columns}


def miniduck_suite(lineitem: Dict[str, np.ndarray]):
    """A miniduck connection over ``lineitem`` (it has no joins, so only the
    single-table statements q1, q6 and topk run through it)."""
    from repro.baselines.miniduck import MiniDuck
    duck = MiniDuck()
    duck.register("lineitem", lineitem)
    return duck


def frame_columns(frame) -> Dict[str, np.ndarray]:
    return {name: np.asarray(frame[name]) for name in frame.columns}


def compare_columns(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray],
                    unordered_ties_on: Optional[str] = None) -> Optional[str]:
    """None when ``got`` matches ``want``, else a one-line description.

    ``unordered_ties_on`` names a sort column whose equal values may come in
    either order (``ORDER BY price LIMIT k`` does not order the rest of the
    row); both sides are re-sorted by every column before comparing.
    """
    if list(got) != list(want):
        return f"columns {list(got)} != {list(want)}"
    if unordered_ties_on is not None:
        got, want = _canonical(got, unordered_ties_on), _canonical(want, unordered_ties_on)
    for name, expected in want.items():
        actual = np.asarray(got[name])
        expected = np.asarray(expected)
        if actual.shape != expected.shape:
            return f"{name}: {actual.shape[0]} rows, expected {expected.shape[0]}"
        if expected.dtype.kind == "f":
            if not np.allclose(actual.astype(np.float64), expected.astype(np.float64),
                               rtol=FLOAT_RTOL, atol=0.0):
                return f"{name}: {actual[:3]} vs {expected[:3]}"
        elif expected.dtype.kind in "iub":
            if actual.dtype.kind not in "iub" or not np.array_equal(actual, expected):
                return f"{name}: {actual[:3]} vs {expected[:3]}"
        elif not np.array_equal(actual.astype(str), expected.astype(str)):
            return f"{name}: {actual[:3]} vs {expected[:3]}"
    return None


def _canonical(columns: Dict[str, np.ndarray], primary: str) -> Dict[str, np.ndarray]:
    rest = [np.asarray(columns[n]) for n in columns if n != primary]
    order = np.lexsort(tuple(rest) + (np.asarray(columns[primary]),))
    return {name: np.asarray(values)[order] for name, values in columns.items()}


def bit_identical(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    if list(a) != list(b):
        return False
    for name in a:
        left, right = np.asarray(a[name]), np.asarray(b[name])
        if left.dtype != right.dtype or left.shape != right.shape:
            return False
        if left.dtype.kind == "O":
            if not np.array_equal(left, right):
                return False
        elif left.tobytes() != right.tobytes():
            return False
    return True


def result_columns(result) -> Dict[str, np.ndarray]:
    """Decode an engine ``QueryResult`` into plain arrays."""
    return {name: np.asarray(result.column(name)) for name in result.column_names}
