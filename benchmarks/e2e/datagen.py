"""Seeded inputs: TPC-H-shaped tables, statement literals, request mixes.

Everything a run feeds the engine comes from here and depends only on
``(seed, scale)``; the engine never sees the seed. Dates are integer days
since 1970-01-01, as the engine has no date type.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

LINEITEM_ROWS = 400_000
ORDERS_ROWS = 100_000
DAY_1992 = 8035           # 1992-01-01
DAY_1998_08 = 10440       # 1998-08-02, last order date
DAY_1998_12 = 10561       # 1998-12-01, Q1's anchor
SHIPMODES = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SUITE = ("q1", "q6", "q3", "q12", "topk")

POINT_COLUMNS = ("o_orderkey", "o_custkey", "o_totalprice", "o_orderdate")
WIDE_COLUMNS = ("o_orderkey", "o_custkey", "o_totalprice")
HOT_STATEMENTS = 64       # fits the 128-entry plan cache with room to spare
WIDE_ROWS = 5000
WIDE_VARIANTS = 8
MIX_SHARES = (0.65, 0.20, 0.15)     # hot, cold, wide


def scaled(rows: int, scale: float, floor: int = 64) -> int:
    return max(int(rows * scale), floor)


def _pick(rng: np.random.Generator, values: List[str], n: int) -> np.ndarray:
    return np.array(values, dtype=object)[rng.integers(0, len(values), n)]


def make_orders(seed: int, scale: float = 1.0) -> Dict[str, np.ndarray]:
    n = scaled(ORDERS_ROWS, scale)
    rng = np.random.default_rng([seed, 1])
    return {
        "o_orderkey": np.arange(n, dtype=np.int64),
        "o_custkey": rng.integers(0, max(n // 10, 1), n),
        "o_orderdate": rng.integers(DAY_1992, DAY_1998_08, n),
        "o_shippriority": rng.integers(0, 2, n),
        "o_orderpriority": _pick(rng, PRIORITIES, n),
        "o_totalprice": np.round(rng.uniform(1000.0, 500000.0, n), 2),
    }


def make_lineitem(seed: int, orders: Dict[str, np.ndarray],
                  scale: float = 1.0) -> Dict[str, np.ndarray]:
    n = scaled(LINEITEM_ROWS, scale, floor=256)
    rng = np.random.default_rng([seed, 2])
    orderkey = rng.integers(0, len(orders["o_orderkey"]), n)
    orderdate = orders["o_orderdate"][orderkey]
    shipdate = orderdate + rng.integers(1, 122, n)
    return {
        "l_orderkey": orderkey,
        "l_quantity": rng.integers(1, 51, n).astype(np.float64),
        "l_extendedprice": np.round(rng.uniform(900.0, 105000.0, n), 2),
        "l_discount": rng.integers(0, 11, n) / 100.0,
        "l_tax": rng.integers(0, 9, n) / 100.0,
        "l_returnflag": _pick(rng, ["A", "N", "R"], n),
        "l_linestatus": _pick(rng, ["F", "O"], n),
        "l_shipdate": shipdate,
        "l_commitdate": orderdate + rng.integers(30, 91, n),
        "l_receiptdate": shipdate + rng.integers(1, 31, n),
        "l_shipmode": _pick(rng, SHIPMODES, n),
    }


def suite_params(seed: int) -> dict:
    """Statement literals. Data is uniform over years, modes and discounts,
    so every choice keeps each statement's selectivity (and cost) the same;
    a seed changes which rows qualify, not how many."""
    rng = np.random.default_rng([seed, 3])
    year = int(rng.integers(1993, 1998))
    year_start = DAY_1992 + 365 * (year - 1992) + (year - 1989) // 4
    discount = int(rng.integers(2, 10)) / 100.0
    modes = sorted(rng.choice(len(SHIPMODES), size=2, replace=False).tolist())
    return {
        "q1_cutoff": DAY_1998_12 - int(rng.integers(60, 121)),
        "q6_start": year_start, "q6_end": year_start + 365,
        # Half-cent margins keep the float32 column values off the bounds.
        "q6_disc_low": round(discount - 0.015, 3),
        "q6_disc_high": round(discount + 0.015, 3),
        "q6_quantity": int(rng.integers(24, 26)),
        "q3_date": 9190 + int(rng.integers(0, 31)),          # March 1995
        "q12_modes": [SHIPMODES[i] for i in modes],
        "q12_start": year_start, "q12_end": year_start + 365,
        "topk": 100,
    }


def suite_statements(p: dict) -> Dict[str, str]:
    modes = ", ".join(f"'{m}'" for m in p["q12_modes"])
    return {
        "q1": (
            "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, "
            "SUM(l_extendedprice) AS sum_base_price, "
            "SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, "
            "SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, "
            "AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, "
            "AVG(l_discount) AS avg_disc, COUNT(*) AS count_order "
            f"FROM lineitem WHERE l_shipdate <= {p['q1_cutoff']} "
            "GROUP BY l_returnflag, l_linestatus "
            "ORDER BY l_returnflag, l_linestatus"),
        "q6": (
            "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
            f"WHERE l_shipdate >= {p['q6_start']} AND l_shipdate < {p['q6_end']} "
            f"AND l_discount BETWEEN {p['q6_disc_low']} AND {p['q6_disc_high']} "
            f"AND l_quantity < {p['q6_quantity']}"),
        "q3": (
            "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, "
            "o_orderdate, o_shippriority "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
            f"WHERE o_orderdate < {p['q3_date']} AND l_shipdate > {p['q3_date']} "
            "GROUP BY l_orderkey, o_orderdate, o_shippriority "
            "ORDER BY revenue DESC LIMIT 10"),
        "q12": (
            "SELECT l_shipmode, COUNT(*) AS line_count, "
            "SUM(o_shippriority) AS priority_sum "
            "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
            f"WHERE l_shipmode IN ({modes}) AND l_commitdate < l_receiptdate "
            "AND l_shipdate < l_commitdate "
            f"AND l_receiptdate >= {p['q12_start']} AND l_receiptdate < {p['q12_end']} "
            "GROUP BY l_shipmode ORDER BY l_shipmode"),
        "topk": (
            "SELECT l_orderkey, l_extendedprice FROM lineitem "
            f"ORDER BY l_extendedprice DESC LIMIT {p['topk']}"),
    }


def suite_order(seed: int) -> List[str]:
    rng = np.random.default_rng([seed, 4])
    return [SUITE[i] for i in rng.permutation(len(SUITE))]


# ----------------------------------------------------------------------
# point_http request mix
# ----------------------------------------------------------------------
def point_statement(key: int) -> str:
    return (f"SELECT {', '.join(POINT_COLUMNS)} FROM orders "
            f"WHERE o_orderkey = {key}")


def wide_statement(low: int, rows: int) -> str:
    return (f"SELECT {', '.join(WIDE_COLUMNS)} FROM orders "
            f"WHERE o_orderkey >= {low} AND o_orderkey < {low + rows}")


def _fixed_texts(seed: int, n_orders: int):
    """The keys behind the repeated statement texts of one seed."""
    base = np.random.default_rng([seed, 5])
    wide_rows = min(WIDE_ROWS, n_orders // 2)
    hot_keys = base.choice(n_orders, size=HOT_STATEMENTS, replace=False)
    wide_lows = base.integers(0, n_orders - wide_rows, WIDE_VARIANTS)
    cold_start = int(base.integers(0, n_orders))
    return hot_keys, wide_lows, wide_rows, cold_start


def repeated_statements(seed: int, n_orders: int) -> List[str]:
    """Every text that recurs in a run (the server's warm-up runs them)."""
    hot_keys, wide_lows, wide_rows, _ = _fixed_texts(seed, n_orders)
    return ([point_statement(int(k)) for k in hot_keys]
            + [wide_statement(int(low), wide_rows) for low in wide_lows])


def request_mix(seed: int, count: int, n_orders: int,
                stream: int) -> List[Tuple[str, str, int]]:
    """``count`` requests as ``(kind, statement, key)``.

    65% ``hot``: one of 64 statement texts fixed by the seed, so the plan
    cache holds them. 20% ``cold``: a key never used before in this run
    (``stream`` keeps the phases and connections apart), so the text is new
    and the statement is parsed, bound, optimized and lowered. 15% ``wide``:
    a range of ``WIDE_ROWS`` rows, one of ``WIDE_VARIANTS`` texts.

    The shares put the median inside the hot class and the 90th percentile
    inside the wide class. At 10% wide the 90th percentile sat on the step
    between cold (1.5 ms) and wide (4 ms) responses and read anything from
    2 to 4 ms depending on how many wide requests a seed happened to draw.
    """
    hot_keys, wide_lows, wide_rows, cold_start = _fixed_texts(seed, n_orders)
    rng = np.random.default_rng([seed, 6, stream])
    # The shares are exact, only the order is drawn: a drawn share would move
    # where in the hot class the median falls from one seed to the next.
    cold, wide = (int(round(count * share)) for share in MIX_SHARES[1:])
    kinds = rng.permutation(np.repeat([0, 1, 2], [count - cold - wide, cold, wide]))
    # Cold keys: streams interleave one arithmetic walk over the key space
    # (step coprime with the table size), so no key comes twice in a run.
    out: List[Tuple[str, str, int]] = []
    cold_seen = 0
    for kind in kinds:
        if kind == 0:
            key = int(hot_keys[rng.integers(0, HOT_STATEMENTS)])
            out.append(("hot", point_statement(key), key))
        elif kind == 1:
            key = (cold_start + (cold_seen * 8 + stream) * 7919) % n_orders
            cold_seen += 1
            out.append(("cold", point_statement(key), key))
        else:
            low = int(wide_lows[rng.integers(0, WIDE_VARIANTS)])
            out.append(("wide", wide_statement(low, wide_rows), low))
    return out
