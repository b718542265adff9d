"""Plan-cache + pipeline-stage benchmarks (the execution-speed subsystem).

Three measurements:

* repeated ``tdp.sql.query(...)`` with the plan cache vs. cold
  parse→bind→optimize→lower on every call (TQP-style compiled-program reuse);
* single-stage Filter→Project execution on the A2 ablation workload shape,
  checked against the miniduck oracle;
* ``execute_many`` batches sharing one scan vs. statement-at-a-time runs
  with a device transfer each.
"""

import numpy as np

from repro.bench.harness import print_table, record_metric, scaled, time_call
from repro.core.session import Session

N_ROWS = scaled(300_000)

# Compile-heavy, execution-light: a long IN list is expensive to
# parse/bind/optimize but lowers to one vectorised np.isin mask.
CACHED_SQL = (
    "SELECT k, v + w AS a1, v * w AS a2 FROM t "
    f"WHERE k IN ({', '.join(str(i) for i in range(0, 80, 2))}) "
    "AND v > 0.1 AND w < 0.95"
)


def _session(n_rows):
    rng = np.random.default_rng(17)
    session = Session()
    session.sql.register_dict({
        "k": rng.integers(0, 50, size=n_rows),
        "v": rng.random(size=n_rows).astype(np.float32),
        "w": rng.random(size=n_rows).astype(np.float32),
    }, "t")
    return session


class TestPlanCache:
    def test_cached_beats_cold_compile(self, benchmark):
        """Acceptance: cached repeat execution ≥ 5× faster than compile+run."""
        session = _session(scaled(100))

        def cold():
            session.sql.query(CACHED_SQL,
                              extra_config={"plan_cache": False}).run()

        session.sql.query(CACHED_SQL).run()        # populate the cache

        def warm():
            session.sql.query(CACHED_SQL).run()

        cold_s = time_call(cold, repeat=9)
        warm_s = time_call(warm, repeat=9)
        print_table(
            "plan cache: compile+run vs cached run",
            ["path", "seconds", "speedup"],
            [["cold compile + run", cold_s, 1.0],
             ["plan-cache hit + run", warm_s, cold_s / warm_s]],
        )
        record_metric("plan_cache", speedup=round(cold_s / warm_s, 2),
                      cold_s=round(cold_s, 5), warm_s=round(warm_s, 5))
        assert warm_s * 5 <= cold_s
        benchmark.pedantic(warm, rounds=5, iterations=1, warmup_rounds=1)

    def test_cache_hit_rate_accounting(self, benchmark):
        session = _session(scaled(100))
        for _ in range(10):
            session.sql.query(CACHED_SQL).run()
        stats = session.plan_cache.stats
        assert stats["hits"] == 9 and stats["misses"] == 1
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)


class TestPipelineStage:
    def test_filter_project_stage(self, benchmark):
        """Filter→Project as one pipeline stage (three conjuncts, one mask,
        one gather), checked against the outside oracle."""
        from repro.baselines.miniduck import MiniDuck
        session = _session(N_ROWS)
        sql = ("SELECT v + w AS s, v * 2 AS d FROM t "
               "WHERE v > 0.25 AND w < 0.75 AND v < w")
        query = session.sql.query(sql)
        assert query.explain().count("Pipeline[") == 1
        duck = MiniDuck()
        duck.register("t", session.sql.query("SELECT k, v, w FROM t").run(toPandas=True))
        assert query.run(toPandas=True).equals(duck.execute(sql), atol=1e-5)
        stage_s = time_call(query.run, repeat=5)
        print_table(
            f"pipeline stage: Filter->Project on {N_ROWS} rows",
            ["pipeline", "seconds"], [["single stage", stage_s]],
        )
        benchmark.pedantic(query.run, rounds=3, iterations=1, warmup_rounds=1)

    def test_conjunct_filter_stage(self, benchmark):
        session = _session(N_ROWS)
        q = session.sql.query(
            "SELECT k, v, w FROM t WHERE v > 0.2 AND w > 0.2 AND k > 5")
        benchmark.pedantic(q.run, rounds=3, iterations=1, warmup_rounds=1)


class TestBatchExecution:
    def test_execute_many_shared_scan(self, benchmark):
        session = _session(N_ROWS)
        statements = [
            "SELECT COUNT(*) FROM t",
            "SELECT SUM(v) FROM t",
            "SELECT AVG(w) FROM t",
            "SELECT MIN(v), MAX(w) FROM t",
        ]

        def individually():
            return [session.sql.query(s, device="cuda").run()
                    for s in statements]

        def batched():
            return session.execute_many(statements, device="cuda")

        single_s = time_call(individually, repeat=3)
        batch_s = time_call(batched, repeat=3)
        print_table(
            f"batch execution: 4 statements over {N_ROWS} rows (cuda transfers)",
            ["mode", "seconds"],
            [["statement-at-a-time", single_s], ["execute_many shared scan", batch_s]],
        )
        # Shared scans can't lose: the batch pays each transfer at most once.
        assert batch_s < single_s * 1.5
        benchmark.pedantic(batched, rounds=3, iterations=1, warmup_rounds=1)
