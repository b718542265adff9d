"""Concurrent query serving: thread-safety of the engine core, the
scheduler subsystem, and a randomized stress test over
query/DDL/UDF-re-registration interleavings."""

import os
import threading
import time

import numpy as np
import pytest

from repro.core import tensor_cache as tc
from repro.core.scheduler import QueryScheduler
from repro.core.session import Session
from repro.storage.column import Column
from repro.tcr import nn
from repro.tcr.tensor import Tensor


def _scaled(value: int, minimum: int = 1) -> int:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1"))
    return max(int(round(value * scale)), minimum)


def _run_threads(n, target):
    """Start n threads on target(i), join them, re-raise the first error."""
    errors = []

    def wrapped(i):
        try:
            target(i)
        except BaseException as exc:   # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "worker thread deadlocked"
    if errors:
        raise errors[0]
    return errors


def _numeric_session(rows: int = 64) -> Session:
    session = Session()
    rng = np.random.default_rng(7)
    session.sql.register_dict(
        {"k": np.arange(rows, dtype=np.int64) % 8,
         "v": rng.normal(size=rows).astype(np.float32),
         "vec": rng.normal(size=(rows, 8)).astype(np.float32)},
        "t",
    )
    scale = nn.Linear(1, 1)

    @session.udf("float", name="affine", modules=[scale])
    def affine(v: Tensor) -> Tensor:
        return scale(v.reshape(-1, 1)).reshape(-1)

    return session


QUERIES = [
    "SELECT COUNT(*) FROM t WHERE v > 0",
    "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k",
    "SELECT k FROM t WHERE affine(v) > 0 ORDER BY k LIMIT 5",
    "SELECT SUM(v) FROM t",
    "SELECT k, v FROM t WHERE k = 3 ORDER BY v LIMIT 4",
]
# Join statements: their filtered scans are the only shape that shards.
JOIN_QUERIES = [
    "SELECT a.k, b.v FROM t a JOIN t b ON a.k = b.k WHERE a.v > 0 "
    "ORDER BY a.k, b.v LIMIT 20",
    "SELECT a.k, COUNT(*) AS n FROM t a JOIN t b ON a.k = b.k "
    "WHERE b.v < 0.5 GROUP BY a.k ORDER BY a.k",
]


def _join_expected(session, shards):
    """Serial results of ``JOIN_QUERIES``, after checking that each one
    lowers to sharded scans at ``shards``."""
    for q in JOIN_QUERIES:
        assert "ShardedScan(" in session.sql.query(
            q, extra_config={"shards": shards}).explain(), q
    return [_snapshot(session.sql.query(q).run()) for q in JOIN_QUERIES]


def _snapshot(result):
    return {name: result.column(name).tolist() for name in result.column_names}


def _serve(session, statements, workers=4, extra_config=None):
    """Run ``statements`` on a fresh ``workers``-thread scheduler; results
    in submission order (the first failure re-raises)."""
    scheduler = QueryScheduler(session, workers=workers)
    try:
        futures = [scheduler.submit(s, extra_config=extra_config)
                   for s in statements]
        return [f.result(timeout=60) for f in futures]
    finally:
        scheduler.shutdown()


class TestParallelQueries:
    def test_parallel_queries_match_serial(self):
        """8 threads hammering one session produce the serial results."""
        session = _numeric_session()
        expected = [_snapshot(session.sql.query(q).run()) for q in QUERIES]
        outcomes = [[None] * len(QUERIES) for _ in range(8)]

        def worker(i):
            order = list(range(len(QUERIES)))
            if i % 2:
                order.reverse()
            for j in order:
                outcomes[i][j] = _snapshot(session.sql.query(QUERIES[j]).run())

        _run_threads(8, worker)
        for per_thread in outcomes:
            assert per_thread == expected

    def test_concurrent_reregistration_never_tears_a_scan(self):
        """Each run resolves the table once: while another thread swaps
        between two versions of ``t``, every run's COUNT and SUM come from
        one version, never a mix."""
        session = _numeric_session()
        rng = np.random.default_rng(11)
        versions = [
            {"k": np.arange(rows, dtype=np.int64) % 8,
             "v": rng.normal(size=rows).astype(np.float32),
             "vec": rng.normal(size=(rows, 8)).astype(np.float32)}
            for rows in (64, 32)]
        sql = "SELECT COUNT(*) AS n, SUM(v) AS s FROM t"

        def count_and_sum():
            got = _snapshot(session.sql.query(sql).run())
            return got["n"][0], got["s"][0]

        expected = set()
        for version in versions:
            session.sql.register_dict(dict(version), "t")
            expected.add(count_and_sum())
        assert {n for n, _ in expected} == {64, 32}
        seen = []

        def worker(i):
            if i == 0:
                for j in range(40):
                    session.sql.register_dict(dict(versions[j % 2]), "t")
                return
            for _ in range(40):
                seen.append(count_and_sum())

        _run_threads(4, worker)
        assert len(seen) == 3 * 40
        assert set(seen) <= expected


class TestIndexBuildOnce:
    def test_concurrent_lazy_build_embeds_once(self):
        """N concurrent probes of an unbuilt index embed the corpus once."""
        session = _numeric_session()
        calls = []

        def embedder(tensor):
            calls.append(1)
            time.sleep(0.01)     # widen the race window
            return np.asarray(tensor.data, dtype=np.float32)

        session.create_vector_index("ivf", "t", "vec", cells=4, nprobe=4,
                                    embedder=embedder)
        entry = session.indexes.lookup("ivf")
        query = np.zeros(8, dtype=np.float32)

        def worker(_):
            ids, _scores = session.indexes.search("ivf", query, k=3)
            assert len(ids) == 3

        _run_threads(8, worker)
        assert sum(calls) == 1
        assert entry.build_count == 1

    def test_stale_rebuild_still_builds_once(self):
        session = _numeric_session()
        calls = []
        session.create_vector_index(
            "ivf", "t", "vec", cells=4,
            embedder=lambda t: (calls.append(1)
                                or np.asarray(t.data, dtype=np.float32)))
        session.indexes.search("ivf", np.zeros(8, dtype=np.float32), k=2)
        assert sum(calls) == 1
        # Re-register the table: the entry is stale; concurrent probes must
        # agree on a single rebuild.
        rng = np.random.default_rng(3)
        session.sql.register_dict(
            {"k": np.arange(32, dtype=np.int64) % 8,
             "v": rng.normal(size=32).astype(np.float32),
             "vec": rng.normal(size=(32, 8)).astype(np.float32)}, "t")
        _run_threads(6, lambda _: session.indexes.search(
            "ivf", np.zeros(8, dtype=np.float32), k=2))
        assert sum(calls) == 2
        assert session.indexes.lookup("ivf").build_count == 2


class TestCacheConcurrency:
    def test_tensor_cache_eviction_budget_invariant(self):
        """Concurrent inserts never leave the cache over its byte budget."""
        from repro.core.tensor_cache import TensorCache
        cache = TensorCache(max_bytes=16 * 1024)
        violations = []

        def worker(i):
            rng = np.random.default_rng(i)
            for j in range(200):
                col = Column.from_values(
                    "c", rng.normal(size=64).astype(np.float32))
                cache.put((i, j), [col], col.tensor.data.nbytes)
                if cache.current_bytes > cache.max_bytes:
                    violations.append(cache.current_bytes)

        _run_threads(8, worker)
        assert not violations
        stats = cache.stats
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["inserts"] == 8 * 200

    def test_plan_cache_stats_do_not_tear(self):
        """hits + misses always equals the number of lookups."""
        session = _numeric_session()
        lookups_per_thread = 40

        def worker(i):
            for j in range(lookups_per_thread):
                session.sql.query(QUERIES[(i + j) % len(QUERIES)]).run()

        _run_threads(8, worker)
        stats = session.plan_cache.stats
        assert stats["hits"] + stats["misses"] == 8 * lookups_per_thread

    def test_tensor_cache_stats_consistent_under_load(self):
        session = _numeric_session()

        def worker(i):
            for _ in range(10):
                session.sql.query(
                    "SELECT k FROM t WHERE affine(v) > 0 ORDER BY k LIMIT 5"
                ).run()

        _run_threads(6, worker)
        stats = session.tensor_cache.stats
        lookups = stats["hits"] + stats["misses"] + stats["gather_hits"]
        assert lookups == 60      # every run consulted the cache exactly once
        assert stats["misses"] >= 1
        # Each miss computed the whole 64-row column, and nothing else did.
        assert stats["rows_computed"] == 64 * stats["misses"]
        assert stats["bytes"] <= stats["max_bytes"]

    def test_tags_are_refcounted_across_sharers(self):
        """One query's cleanup must not strip another query's in-flight tag
        on a shared base-column tensor."""
        tensor = Tensor(np.zeros(3, dtype=np.float32))
        tag = tc.CacheTag(5, None)
        tc.tag_tensor(tensor, tag)      # query A
        tc.tag_tensor(tensor, tag)      # query B (same shared tensor)
        tc.untag_tensor(tensor)         # A finishes first
        assert getattr(tensor, "_cache_tag", None) is tag   # B keeps its tag
        tc.untag_tensor(tensor)         # B finishes
        assert getattr(tensor, "_cache_tag", None) is None
        tc.untag_tensor(tensor)         # extra release is harmless


class TestScheduler:
    def test_submit_returns_future_with_query_result(self):
        session = _numeric_session()
        scheduler = QueryScheduler(session, workers=2)
        try:
            future = scheduler.submit("SELECT COUNT(*) FROM t")
            assert future.result(timeout=30).scalar() == 64
        finally:
            scheduler.shutdown()

    def test_serve_matches_serial_in_order(self):
        session = _numeric_session()
        expected = [_snapshot(session.sql.query(q).run()) for q in QUERIES]
        served = _serve(session, QUERIES * 3, workers=4)
        assert [_snapshot(r) for r in served] == expected * 3

    def test_identical_inflight_statements_coalesce(self):
        session = _numeric_session()
        invocations = []
        barrier = threading.Barrier(4, timeout=30)

        @session.udf("float", name="slowfn")
        def slowfn(v: Tensor) -> Tensor:
            invocations.append(1)
            time.sleep(0.05)
            return v

        scheduler = QueryScheduler(session, workers=4)
        try:
            # Fill all four workers with a barrier statement first so the
            # duplicates below are guaranteed to be in flight together.
            @session.udf("float", name="sync", deterministic=False)
            def sync(v: Tensor) -> Tensor:
                barrier.wait()
                return v

            warm = [scheduler.submit("SELECT sync(v) FROM t WHERE k = %d" % i)
                    for i in range(4)]
            dupes = [scheduler.submit("SELECT SUM(slowfn(v)) FROM t",
                                      extra_config={"tensor_cache": False})
                     for _ in range(8)]
            for f in warm + dupes:
                f.result(timeout=30)
            values = {f.result().scalar() for f in dupes}
            assert len(values) == 1
            assert scheduler.stats["coalesced"] >= 1
            # With the tensor cache off every non-coalesced duplicate
            # re-invokes slowfn, once per statement.
            assert len(invocations) == scheduler.stats["executed"] - 4
        finally:
            scheduler.shutdown()

    def test_nondeterministic_statements_never_coalesce(self):
        """Two identical in-flight statements over a deterministic=False
        UDF each run it, as two serialized runs would."""
        session = _numeric_session()
        invocations = []
        release = threading.Event()

        @session.udf("float", name="counted", deterministic=False)
        def counted(v: Tensor) -> Tensor:
            invocations.append(1)
            assert release.wait(timeout=30), "never released"
            return v

        scheduler = QueryScheduler(session, workers=2)
        try:
            statement = "SELECT SUM(counted(v)) FROM t"
            first = scheduler.submit(statement)
            for _ in range(500):        # until the first run is inside
                if invocations:
                    break
                time.sleep(0.01)
            second = scheduler.submit(statement)
            for _ in range(200):        # the second runs too, or coalesced
                if len(invocations) == 2:
                    break
                time.sleep(0.01)
            release.set()
            assert first.result(timeout=30).scalar() == \
                second.result(timeout=30).scalar()
            assert len(invocations) == 2
            assert scheduler.stats["coalesced"] == 0
        finally:
            release.set()
            scheduler.shutdown()

    def test_same_schema_write_disqualifies_joining(self):
        """A write that keeps the schema keeps the cached plan, but a
        statement submitted after it must not receive the result of a run
        that read the rows before it."""
        session = _numeric_session()
        invocations = []
        release = threading.Event()

        @session.udf("float", name="gated")
        def gated(v: Tensor) -> Tensor:
            invocations.append(1)
            assert release.wait(timeout=30), "never released"
            return v

        scheduler = QueryScheduler(session, workers=2)
        try:
            statement = "SELECT SUM(gated(v)) FROM t"
            config = {"tensor_cache": False}
            plan = session.sql.query(statement, extra_config=config)
            first = scheduler.submit(statement, extra_config=config)
            for _ in range(500):        # until the first run is inside
                if invocations:
                    break
                time.sleep(0.01)
            old = session.catalog.get("t")
            session.sql.register_dict(
                {"k": np.asarray(old.column("k").decode()),
                 "v": np.asarray(old.column("v").decode()) + 1.0,
                 "vec": np.asarray(old.column("vec").decode())}, "t")
            assert session.sql.query(statement, extra_config=config) is plan
            second = scheduler.submit(statement, extra_config=config)
            for _ in range(200):        # the second runs on its own
                if len(invocations) == 2:
                    break
                time.sleep(0.01)
            release.set()
            before = first.result(timeout=30).scalar()
            after = second.result(timeout=30).scalar()
            assert after == pytest.approx(before + 64.0, rel=1e-5)
            assert scheduler.stats["coalesced"] == 0
        finally:
            release.set()
            scheduler.shutdown()

    def test_ddl_never_coalesces_and_registry_change_disqualifies(self):
        session = _numeric_session()
        scheduler = QueryScheduler(session, workers=2)
        try:
            f1 = scheduler.submit("SELECT COUNT(*) FROM t")
            f1.result(timeout=30)
            stamp_before = scheduler.stats["executed"]
            # A DDL statement between two identical submissions bumps the
            # version stamp, so the second must re-execute, not join.
            f2 = scheduler.submit("SELECT SUM(v) FROM t")
            f2.result(timeout=30)
            session.sql.query(
                "CREATE VECTOR INDEX cidx ON t(vec) WITH (cells=2)").run()
            f3 = scheduler.submit("SELECT SUM(v) FROM t")
            assert f3.result(timeout=30).scalar() == f2.result().scalar()
            assert scheduler.stats["executed"] == stamp_before + 2
        finally:
            scheduler.shutdown()

    def test_errors_propagate_through_futures(self):
        session = _numeric_session()
        scheduler = QueryScheduler(session, workers=2)
        try:
            future = scheduler.submit("SELECT nope FROM t")
            with pytest.raises(Exception):
                future.result(timeout=30)
            # The pool survives the failure.
            assert scheduler.submit("SELECT COUNT(*) FROM t").result(
                timeout=30).scalar() == 64
        finally:
            scheduler.shutdown()


class TestSimilarityServing:
    """Concurrent similarity statements served by a worker pool return the
    serial results bit for bit. With the tensor cache off every statement
    pays its own encoder forwards on the worker that runs it; with it on,
    concurrent statements share the encode memo."""

    # Exact plans only: whether a statement compiled before or after the
    # CREATE INDEX would pick the ANN access path depends on scheduling.
    CONFIG = {"disable_rules": ("vector_index",)}

    TOPK = [f"SELECT attachment_id, image_text_similarity('{text}', images) "
            f"AS score FROM Attachments ORDER BY score DESC LIMIT 5"
            for text in ("receipt", "dog", "KFC Receipt")]
    COUNTS = [f"SELECT COUNT(*) FROM Attachments WHERE "
              f"image_text_similarity('{text}', images) > 0.8"
              for text in ("receipt", "logo")]
    CREATE = ("CREATE VECTOR INDEX serving_ivf ON Attachments(images) "
              "WITH (cells=4, nprobe=2)")
    DROP = "DROP INDEX IF EXISTS serving_ivf"
    WORKLOADS = {
        "topk": TOPK * 2,
        "count": COUNTS * 2,
        "index_ddl": TOPK[:2] + [CREATE] + TOPK[:2] + [DROP] + TOPK[:2],
        # Two client copies of the stream, with the index DDL in between.
        "mixed": TOPK + COUNTS + [CREATE] + TOPK + COUNTS + [DROP],
    }

    @pytest.fixture(scope="class")
    def model_and_data(self):
        from repro.datasets.attachments import make_attachments
        from repro.ml.models.clip import TinyCLIP

        data = make_attachments(12, 6, 6, rng=np.random.default_rng(0))
        model = TinyCLIP()
        model.calibrate(Tensor(data.images), data.captions)
        return model, data

    def _check(self, model_and_data, workload, cache_bytes):
        from repro.apps.multimodal import setup_multimodal
        model, data = model_and_data

        def run(serve):
            session = Session(tensor_cache_bytes=cache_bytes)
            setup_multimodal(session, data, model)
            if serve:
                return session, _serve(session, workload, workers=4,
                                       extra_config=self.CONFIG)
            return session, [session.sql.query(s, extra_config=self.CONFIG)
                             .run() for s in workload]

        (_, serial), (session, served) = run(False), run(True)
        assert len(served) == len(workload)
        for statement, a, b in zip(workload, serial, served):
            if statement in (self.CREATE, self.DROP):
                continue           # DDL status text depends on ordering
            sa = {n: np.asarray(a.column(n)) for n in a.column_names}
            sb = {n: np.asarray(b.column(n)) for n in b.column_names}
            assert list(sa) == list(sb)
            for name in sa:
                np.testing.assert_array_equal(sa[name], sb[name])
            if "score" in sb:
                assert sb["score"].dtype == np.float32
        return session.tensor_cache.stats

    @pytest.mark.parametrize(
        "shape, cache_bytes",
        [pytest.param(shape, 0, id=shape) for shape in WORKLOADS]
        + [pytest.param("mixed", 64 << 20, id="mixed-cached")])
    def test_serve_matches_serial_bit_identically(self, model_and_data,
                                                   shape, cache_bytes):
        stats = self._check(model_and_data, self.WORKLOADS[shape],
                            cache_bytes=cache_bytes)
        if cache_bytes:
            assert stats["hits"] > 0
        else:
            assert stats["inserts"] == 0 and stats["hits"] == 0


class TestStress:
    """Randomized concurrent query / DDL / UDF-re-registration stress.

    Every mutation is semantically idempotent (tables re-register the same
    content, UDFs re-register the same body), so every query interleaving
    has one correct answer; the test checks each thread observes it while
    registries churn underneath.
    """

    def test_randomized_interleavings_survive(self, tiny_shards):
        session = _numeric_session()
        rng0 = np.random.default_rng(0)
        table_data = {
            "k": np.arange(64, dtype=np.int64) % 8,
            "v": np.random.default_rng(7).normal(size=64).astype(np.float32),
            "vec": np.random.default_rng(7).normal(
                size=(64, 8)).astype(np.float32),
        }
        # Recreate 't' deterministically so re-registration keeps content.
        session.sql.register_dict(dict(table_data), "t")
        scale = session.functions.lookup("affine").modules[0]
        expected = [_snapshot(session.sql.query(q).run()) for q in QUERIES]
        join_expected = _join_expected(session, shards=2)
        iterations = _scaled(25, minimum=5)
        probe = rng0.normal(size=8).astype(np.float32)
        scheduler = QueryScheduler(session, workers=4)

        def reregister_udf():
            @session.udf("float", name="affine", modules=[scale])
            def affine(v: Tensor) -> Tensor:
                return scale(v.reshape(-1, 1)).reshape(-1)

        def worker(i):
            rng = np.random.default_rng(1000 + i)
            for _ in range(iterations):
                op = int(rng.integers(0, 12))
                if op < 5:
                    j = int(rng.integers(0, len(QUERIES)))
                    got = _snapshot(session.sql.query(QUERIES[j]).run())
                    assert got == expected[j]
                elif op >= 10:
                    # Sharded statements interleave with whole-query work on
                    # the session shard pool without deadlock, bit-identical.
                    j = int(rng.integers(0, len(JOIN_QUERIES)))
                    got = _snapshot(session.sql.query(
                        JOIN_QUERIES[j],
                        extra_config={"shards": int(rng.integers(2, 5))}).run())
                    assert got == join_expected[j]
                elif op == 5:
                    session.sql.register_dict(dict(table_data), "t")
                elif op == 6:
                    reregister_udf()
                elif op == 7:
                    name = f"sidx_{i}"
                    try:
                        session.create_vector_index(
                            name, "t", "vec", cells=4, nprobe=4,
                            embedder=lambda t: np.asarray(
                                t.data, dtype=np.float32))
                        ids, _ = session.indexes.search(name, probe, k=3)
                        assert len(ids) == 3
                    finally:
                        session.drop_index(name, if_exists=True)
                elif op == 8:
                    assert session.sql.query(
                        "SELECT COUNT(*) FROM t").run().scalar() == 64
                    session.sql.query("SELECT SUM(v) FROM t").run()
                else:
                    future = scheduler.submit(QUERIES[0])
                    assert _snapshot(future.result(timeout=60)) == expected[0]

        try:
            _run_threads(6, worker)
        finally:
            scheduler.shutdown()
        # The engine is still coherent afterwards.
        for q, want in zip(QUERIES, expected):
            assert _snapshot(session.sql.query(q).run()) == want
        stats = session.plan_cache.stats
        assert stats["hits"] + stats["misses"] >= iterations
        session.reset()

    def test_stress_with_concurrent_serving(self, tiny_shards):
        """Scheduled batches under concurrent direct queries from other
        threads."""
        session = _numeric_session()
        expected = [_snapshot(session.sql.query(q).run()) for q in QUERIES]
        join_expected = _join_expected(session, shards=3)
        rounds = _scaled(6, minimum=2)

        def direct(i):
            for j in range(rounds * 3):
                q = QUERIES[(i + j) % len(QUERIES)]
                assert _snapshot(session.sql.query(q).run()) == \
                    expected[QUERIES.index(q)]

        def serving(worker_idx):
            for round_idx in range(rounds):
                if (worker_idx + round_idx) % 2:
                    # Alternate rounds serve sharded statements: scheduler
                    # workers submit shard batches to the session pool while
                    # other scheduler workers run whole statements.
                    got = _serve(session, JOIN_QUERIES, workers=3,
                                 extra_config={"shards": 3})
                    assert [_snapshot(r) for r in got] == join_expected
                else:
                    got = _serve(session, QUERIES, workers=3)
                    assert [_snapshot(r) for r in got] == expected

        def drive(i):
            (serving if i < 2 else direct)(i)

        _run_threads(4, drive)
