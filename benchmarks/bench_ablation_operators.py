"""Ablation A2 — operator implementation choices (flags + heuristics).

The paper (§2): "For each physical operator, we can have more than one
[tensor] implementation, and at compilation time we use a mix of flags and
heuristics to pick which one to use." These benches measure the choices the
planner makes: the one grouped aggregate across key shapes and fused top-k vs
a full sort.
"""

import numpy as np

from repro.baselines.miniduck import MiniDuck
from repro.bench.harness import print_table, scaled, time_call
from repro.core.session import Session

N_ROWS = scaled(300_000)


def _keys(shape, rng):
    """Group keys of one shape: dense ints of a given cardinality, sparse
    ints (the same count spread over a wide range), or floats."""
    if shape == "sparse":
        return rng.integers(0, 1_000, size=N_ROWS) * 1_000_003
    if shape == "float":
        return (rng.integers(0, 1_000, size=N_ROWS) / 8).astype(np.float32)
    return rng.integers(0, shape, size=N_ROWS)


def _data_with_keys(shape):
    rng = np.random.default_rng(7)
    return {"k": _keys(shape, rng),
            "v": rng.normal(size=N_ROWS).astype(np.float32)}


def _session_with_keys(shape):
    session = Session()
    session.sql.register_dict(_data_with_keys(shape), "t")
    return session


class TestGroupByImplementations:
    def test_grouped_aggregate_across_key_shapes(self, benchmark):
        """Dense keys at three cardinalities, sparse ints and float keys,
        each checked against miniduck; the times are informative."""
        sql = "SELECT k, COUNT(*), SUM(v), MIN(v) FROM t GROUP BY k ORDER BY k"
        rows = []
        for shape in [10, 1_000, 100_000, "sparse", "float"]:
            data = _data_with_keys(shape)
            session = Session()
            session.sql.register_dict(dict(data), "t")
            query = session.spark.query(sql)
            duck = MiniDuck()
            duck.register("t", dict(data))
            assert query.run(toPandas=True).equals(duck.execute(sql), atol=1e-2), shape
            rows.append([shape, time_call(query.run, repeat=3)])
        print_table(f"A2: grouped aggregate by key shape ({N_ROWS} rows)",
                    ["keys", "seconds"], rows)
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_groupby(self, benchmark):
        session = _session_with_keys(1_000)
        q = session.spark.query("SELECT k, COUNT(*) FROM t GROUP BY k")
        benchmark.pedantic(q.run, rounds=3, iterations=1, warmup_rounds=1)


class TestTopKImplementations:
    def test_partition_vs_full_sort(self, benchmark):
        session = _session_with_keys(10)
        fused = session.spark.query(
            "SELECT v FROM t ORDER BY v DESC LIMIT 10")        # TopKExec
        full = session.spark.query("SELECT v FROM t ORDER BY v DESC")
        fused_s = time_call(fused.run, repeat=3)
        full_s = time_call(full.run, repeat=3)
        print_table(
            f"A2: top-10 of {N_ROWS} rows",
            ["implementation", "seconds"],
            [["argpartition top-k", fused_s], ["full sort", full_s]],
        )
        assert fused.run(toPandas=True).equals(full.run(toPandas=True).head(10))
        assert fused_s < full_s * 1.5      # partition never much worse
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_topk_partition(self, benchmark):
        session = _session_with_keys(10)
        q = session.spark.query("SELECT v FROM t ORDER BY v DESC LIMIT 10")
        benchmark.pedantic(q.run, rounds=3, iterations=1, warmup_rounds=1)
