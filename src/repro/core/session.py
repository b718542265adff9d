"""The TDP session: the ``tdp`` object of the paper's listings.

>>> import repro as tdp
>>> tdp.sql.register_df(data, "numbers", device="cuda")
>>> q = tdp.sql.spark.query("SELECT ... FROM numbers ...", device="cuda")
>>> result = q.run(toPandas=True)

Statements run one at a time through ``compile_query(...).run()``, or
concurrently through the session's worker pool (``submit`` / ``aquery`` /
``serve``, see :mod:`repro.core.scheduler`); both paths share the plan
cache and the tensor cache and return the same results.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from typing import Callable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.compiled_query import CompiledQuery
from repro.core.compiler import Compiler
from repro.core.config import QueryConfig, constants
from repro.core.indexes import IndexEntry, IndexManager
from repro.core.partition import ShardPool
from repro.core.telemetry import MetricsRegistry, SlowQueryLog, span
from repro.core.tensor_cache import DEFAULT_TENSOR_CACHE_BYTES, TensorCache
from repro.core.udf import FunctionRegistry, make_udf_decorator
from repro.sql.binder import Binder
from repro.sql.optimizer import optimize
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.frame import DataFrame
from repro.storage.table import Table
from repro.tcr.device import as_device
from repro.tcr.tensor import ensure_tensor


class PlanCache:
    """LRU cache of compiled queries.

    Keys include the statement text, target device, the full config
    fingerprint, and the catalog/UDF-registry versions — so any
    ``register_*``, ``drop`` or UDF (re)registration naturally invalidates
    every plan compiled before it (TQP caches lowered PyTorch programs the
    same way; repeated statements skip parse→bind→optimize→lower entirely).
    """

    def __init__(self, maxsize: int = 128):
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, CompiledQuery]" = OrderedDict()
        # Guards entries AND the hit/miss counters: counts are bumped inside
        # the same critical section as the lookup they describe, so
        # concurrent workers can never tear the LRU order or misreport
        # stats (hits + misses always equals the number of lookups).
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple) -> Optional[CompiledQuery]:
        with self._lock:
            query = self._entries.get(key)
            if query is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return query

    def put(self, key: tuple, query: CompiledQuery) -> None:
        with self._lock:
            self._entries[key] = query
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> dict:
        # Unified stats vocabulary (see docs/OBSERVABILITY.md): hits/misses/
        # evictions are lifetime counts, size/maxsize are entry counts.
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "size": len(self._entries), "maxsize": self.maxsize}


class SparkNamespace:
    """Alias namespace mirroring ``tdp.sql.spark.query`` / ``tdp.spark.query``.

    The paper routes SQL through Spark's parser/optimizer; our built-in
    front end plays that role, so ``spark.query`` is simply the entry point.
    """

    def __init__(self, session: "Session"):
        self._session = session

    def query(self, statement: str, device: str = "cpu",
              extra_config: Optional[Mapping[str, object]] = None) -> CompiledQuery:
        return self._session.compile_query(statement, device=device,
                                           extra_config=extra_config)


class SqlNamespace:
    """``tdp.sql``: registration APIs plus the planner entry points."""

    def __init__(self, session: "Session"):
        self._session = session
        self.spark = SparkNamespace(session)
        # Substrait-style plans share the same front end in this build.
        self.substrait = self.spark

    # ------------------------------------------------------------------
    # Registration (paper Example 2.1)
    # ------------------------------------------------------------------
    def register_df(self, frame: DataFrame, name: str, device: Optional[str] = None) -> Table:
        """Store a DataFrame as a named TDP table (converted + encoded)."""
        table = Table.from_frame(name, frame, device=device)
        self._session.catalog.register(name, table)
        return table

    def register_dict(self, data: Mapping[str, object], name: str,
                      device: Optional[str] = None) -> Table:
        table = Table.from_dict(name, data, device=device)
        self._session.catalog.register(name, table)
        return table

    def register_numpy(self, array: np.ndarray, name: str, column: str = "value",
                       device: Optional[str] = None) -> Table:
        """Register a (possibly multi-dimensional) numpy array as one column."""
        return self.register_tensor(ensure_tensor(array), name, column=column, device=device)

    def register_tensor(self, tensor, name: str, column: str = "value",
                        device: Optional[str] = None) -> Table:
        """Register a bare tensor as a single-column table (paper Listing 5)."""
        table = Table.from_tensor(name, ensure_tensor(tensor), column=column, device=device)
        self._session.catalog.register(name, table)
        return table

    def register_table(self, table: Table, name: Optional[str] = None) -> Table:
        self._session.catalog.register(name or table.name, table)
        return table

    def drop(self, name: str) -> None:
        self._session.catalog.drop(name)

    def tables(self):
        return self._session.catalog.names()

    def query(self, statement: str, device: str = "cpu",
              extra_config: Optional[Mapping[str, object]] = None) -> CompiledQuery:
        return self._session.compile_query(statement, device=device,
                                           extra_config=extra_config)


# DDL statements mutate session state when run: never serve them from (or
# admit them to) the plan cache — including when wrapped in EXPLAIN.
_DDL_PREFIX = re.compile(
    r"^\s*(?:explain\s+(?:analyze\s+)?)?(create|drop|show)\b", re.IGNORECASE)


class Session:
    """One TDP instance: a catalog, a UDF registry, vector indexes, a
    materialization cache, and query compilation.

    ``tensor_cache_bytes`` budgets the session-wide inference cache
    (``session.tensor_cache``): deterministic UDF outputs and corpus
    embeddings are reused across statements and index builds. Pass 0 to
    disable it for the whole session (per query: ``extra_config=
    {"tensor_cache": False}``).
    """

    def __init__(self, plan_cache_size: int = 128,
                 tensor_cache_bytes: int = DEFAULT_TENSOR_CACHE_BYTES):
        self.catalog = Catalog()
        self.functions = FunctionRegistry()
        self.tensor_cache = TensorCache(tensor_cache_bytes)
        self.indexes = IndexManager(self.catalog, tensor_cache=self.tensor_cache)
        self.sql = SqlNamespace(self)
        self.spark = self.sql.spark
        self.constants = constants
        self.udf = make_udf_decorator(self.functions)
        self.plan_cache = PlanCache(plan_cache_size)
        # Shard workers for intra-query parallelism (sharded scans). Helper
        # threads spawn lazily on the first statement compiled with
        # ``shards != 1``; shard tasks from concurrent statements interleave
        # on the one pool.
        self.shard_pool = ShardPool()
        # Default scheduler for Session.submit (created lazily; Session.serve
        # spins up a dedicated pool per call instead).
        self._scheduler = None
        self._scheduler_lock = threading.Lock()
        # Observability: one registry unifying every subsystem's stats
        # (Session.metrics.snapshot()), plus the slow-statement ring buffer.
        self.metrics = MetricsRegistry()
        self.slow_log = SlowQueryLog()
        self._register_metric_providers()

    def _register_metric_providers(self) -> None:
        self.metrics.register_provider("plan_cache", lambda: self.plan_cache.stats)
        self.metrics.register_provider("tensor_cache", lambda: self.tensor_cache.stats)
        self.metrics.register_provider("shard_pool", lambda: self.shard_pool.stats)
        self.metrics.register_provider("indexes", self.indexes.stats)
        self.metrics.register_provider("slow_log", self.slow_log.stats)

    def compile_query(self, statement: str, device: str = "cpu",
                      extra_config: Optional[Mapping[str, object]] = None) -> CompiledQuery:
        """Parse → bind → optimize → lower (paper Example 2.2), memoised.

        Repeated compilations of the same statement against an unchanged
        catalog/UDF registry return the cached plan. Trainable queries are
        never cached: they own parameters and train/eval state that must be
        private to each compilation. The key includes the index epoch, so
        ``CREATE``/``DROP INDEX`` invalidates plans that chose (or missed)
        an ANN access path.
        """
        config = QueryConfig(extra_config)
        cacheable = (config.plan_cache and not config.trainable
                     and not _DDL_PREFIX.match(statement))
        # span() is the shared no-op singleton unless a trace is active
        # (telemetry knob or EXPLAIN ANALYZE), so the untraced compile path
        # pays one ContextVar read here and nothing else.
        with span("compile", statement=statement) as sp:
            key = None
            if cacheable:
                key = (statement, str(as_device(device)), config.fingerprint(),
                       self.catalog.version, self.functions.version,
                       self.indexes.epoch)
                cached = self.plan_cache.get(key)
                if cached is not None:
                    sp.set(plan_cache="hit")
                    return cached
                sp.set(plan_cache="miss")
            else:
                sp.set(plan_cache="bypass")
            query = self._compile_uncached(statement, config, device)
            if cacheable:
                self.plan_cache.put(key, query)
        return query

    def _compile_uncached(self, statement: str, config: QueryConfig,
                          device: str) -> CompiledQuery:
        with span("parse"):
            ast = parse(statement)
        with span("bind"):
            plan = Binder(self.catalog, self.functions).bind(ast)
        opt_config = config.as_optimizer_config()
        if not config.trainable:
            # The vector_index rule needs the index registry; trainable
            # compilations keep the exact differentiable pipeline.
            opt_config["indexes"] = self.indexes
        with span("optimize"):
            plan = optimize(plan, opt_config)
        compiler = Compiler(self.catalog, config, device, indexes=self.indexes,
                            tensor_cache=self.tensor_cache,
                            shard_pool=self.shard_pool, session=self)
        with span("lower"):
            return compiler.compile(plan, statement)

    # ------------------------------------------------------------------
    # Vector indexes (Python-native DDL path)
    # ------------------------------------------------------------------
    def create_vector_index(self, name: str, table: str, column: str,
                            cells: int = 16, nprobe: Optional[int] = None,
                            seed: int = 0, embedder: Optional[Callable] = None,
                            replace: bool = False) -> IndexEntry:
        """Register a vector index (same effect as ``CREATE VECTOR INDEX``).

        ``embedder`` optionally maps the column tensor to (n, d) vectors;
        without it the index binds to the two-tower model of the first
        similarity UDF that queries it (raw 2-D float columns index as-is).
        """
        return self.indexes.create(name, table, column, cells=cells,
                                   nprobe=nprobe, seed=seed, embedder=embedder,
                                   replace=replace)

    def drop_index(self, name: str, if_exists: bool = False) -> bool:
        return self.indexes.drop(name, if_exists=if_exists)

    # ------------------------------------------------------------------
    # Concurrent serving (the PR 4 scheduler subsystem)
    # ------------------------------------------------------------------
    def scheduler(self, extra_config: Optional[Mapping[str, object]] = None):
        """The session's shared worker pool, created lazily on first use.

        The creating call's serving knobs (``scheduler_workers``,
        ``max_queue_depth``) configure the pool; later calls reuse it as-is.
        Per-request knobs (``priority``, ``deadline``) keep applying per
        submission.
        """
        from repro.core.scheduler import QueryScheduler
        with self._scheduler_lock:
            if self._scheduler is None or self._scheduler.closed:
                config = QueryConfig(extra_config)
                self._scheduler = QueryScheduler(
                    self, workers=config.scheduler_workers or 4,
                    max_queue_depth=config.max_queue_depth)
            return self._scheduler

    def submit(self, statement: str, device: str = "cpu",
               extra_config: Optional[Mapping[str, object]] = None,
               toPandas: bool = False, client: Optional[str] = None):
        """Submit one statement to the session's worker pool.

        Returns a ``concurrent.futures.Future`` resolving to the same value
        ``compile_query(...).run(...)`` would produce. The pool is created
        lazily on first use and shared by all ``submit`` calls; identical
        in-flight statements coalesce into one execution (see
        :mod:`repro.core.scheduler`).

        ``client`` labels the submitting stream for the scheduler's
        round-robin fairness; admission control may raise
        :class:`~repro.errors.ServerOverloaded` instead of queueing.
        """
        return self.scheduler(extra_config).submit(
            statement, device=device, extra_config=extra_config,
            toPandas=toPandas, client=client)

    async def aquery(self, statement: str, device: str = "cpu",
                     extra_config: Optional[Mapping[str, object]] = None,
                     toPandas: bool = False, client: Optional[str] = None):
        """``await``-able ``query(...).run(...)`` over the worker pool.

        Bridges the scheduler's ``concurrent.futures.Future`` onto the
        running event loop without blocking it, so an asyncio server can
        keep thousands of requests in flight over a bounded thread pool.
        Results are identical to the synchronous path — same plan cache,
        tensor cache and locks (``tests/core/test_serving.py`` pins result
        identity against ``query().run()``).
        """
        import asyncio
        future = self.submit(statement, device=device,
                             extra_config=extra_config, toPandas=toPandas,
                             client=client)
        return await asyncio.wrap_future(future)

    async def aserve(self, statements: Sequence[str], device: str = "cpu",
                     extra_config: Optional[Mapping[str, object]] = None,
                     toPandas: bool = False,
                     client: Optional[str] = None) -> List[object]:
        """Run a batch of statements concurrently from async code.

        All statements are submitted to the shared pool at once (fanning
        into coalescing) and gathered in submission order; the first failure
        re-raises after all complete.
        """
        import asyncio
        return list(await asyncio.gather(*[
            self.aquery(s, device=device, extra_config=extra_config,
                        toPandas=toPandas, client=client)
            for s in statements
        ]))

    def serve(self, statements: Sequence[str], workers: int = 4,
              device: str = "cpu",
              extra_config: Optional[Mapping[str, object]] = None,
              toPandas: bool = False, coalesce: bool = True) -> List[object]:
        """Serve a batch of statements on ``workers`` concurrent threads.

        Results come back in submission order (exceptions re-raise in
        order). Semantically equivalent to running the statements one by
        one; throughput comes from running statements in parallel and from
        in-flight coalescing of identical statements, which preserves each
        statement's results.
        """
        from repro.core.scheduler import QueryScheduler
        config = QueryConfig(extra_config)
        scheduler = QueryScheduler(self, workers=workers, coalesce=coalesce,
                                   max_queue_depth=config.max_queue_depth)
        try:
            futures = [scheduler.submit(s, device=device,
                                        extra_config=extra_config,
                                        toPandas=toPandas)
                       for s in statements]
            return [f.result() for f in futures]
        finally:
            scheduler.shutdown()

    def reset(self) -> None:
        """Drop all registered tables, functions and indexes (test isolation)."""
        with self._scheduler_lock:
            if self._scheduler is not None:
                self._scheduler.shutdown()
                self._scheduler = None
        self.catalog.clear()
        self.functions.clear()
        self.indexes.clear()
        self.plan_cache.clear()
        self.tensor_cache.clear()
        self.slow_log.clear()
        # Fresh instruments (lifetime counters restart), same providers.
        self.metrics = MetricsRegistry()
        self._register_metric_providers()
