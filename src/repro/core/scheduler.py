"""Concurrent query serving: worker pool, statement coalescing, admission
control and per-client fairness.

The paper frames TDP as a *system* serving mixed AI+SQL workloads. Inference
batching is left to the tensor runtime: each UDF call already runs once
over the whole column, so this layer schedules *statements*, not encoder
calls. :class:`QueryScheduler` is the worker pool behind the HTTP server
(``core/server.py``); tests and apps that want concurrency construct one
over their session. Statements execute exactly as
``compile_query().run()`` would (same plan cache, same tensor cache, same
locks), so results are identical to serialized execution.

* **Statement coalescing** — identical statements in flight at the same
  catalog write count and UDF/index versions share one execution: a submission whose plan
  calls no non-deterministic UDF or TVF becomes the *leader* once it has
  compiled, and later duplicates attach their futures and receive the
  leader's result object (the request-collapse technique CDNs use against
  thundering herds). This keeps throughput up in the eviction-bound regime
  where the working set exceeds the materialization cache: concurrent
  demand is served once even when nothing can be retained. DDL, trainable
  and ``toPandas`` statements never coalesce, and neither does a statement
  calling a ``deterministic=False`` function (two serialized runs would
  invoke it twice). A registry change between two submissions (version
  stamp mismatch) disqualifies joining, so a follower never observes
  pre-DDL state submitted post-DDL.

* **Admission control** — an overloaded queue must not grow without bound:
  unbounded queueing turns a 2x overload into unbounded p99 (every request
  waits behind the whole backlog). ``max_queue_depth`` caps the number of
  *queued* (not yet running) requests; beyond it the scheduler rejects the
  new request with a typed :class:`~repro.errors.ServerOverloaded` (reason
  ``queue_full``).

* **Per-client fairness** — the queue is not FIFO across requests: it is
  round-robin across *clients*, so one greedy client submitting 100
  statements cannot starve a client submitting 1. A client's queue leaves
  the rotation with its last queued job, so the table never holds more
  clients than queued jobs.

Locking rules: the scheduler lock is a leaf — no engine lock is acquired
while holding it. Future callbacks (``set_result``/``set_exception``) always
fire outside the scheduler lock: an ``asyncio.wrap_future`` callback or user
callback may re-enter ``submit``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import List, Mapping, Optional

from repro.core.config import QueryConfig
from repro.errors import ServerOverloaded
from repro.tcr.device import as_device


class _Job:
    __slots__ = ("statement", "device", "extra_config", "toPandas", "future",
                 "key", "stamp", "followers", "submitted", "client")

    def __init__(self, statement, device, extra_config, toPandas, future, key,
                 client=None):
        self.statement = statement
        self.device = device
        self.extra_config = extra_config
        self.toPandas = toPandas
        self.future = future
        self.key = key
        self.stamp = None
        self.followers: List[Future] = []
        self.submitted = time.monotonic()
        self.client = client


class QueryScheduler:
    """Worker pool serving one session's statements concurrently.

    ``submit`` returns a ``concurrent.futures.Future``; ``shutdown`` drains
    the pool. Statements run through the ordinary ``Session.compile_query``
    → ``CompiledQuery.run`` path (plan cache, tensor cache, locks), so a
    scheduled statement's result is the result serialized execution would
    produce.

    The ready queue is client-fair: jobs dequeue round-robin across the
    clients with queued work. ``max_queue_depth`` bounds the queued backlog;
    over it, admission rejects the new request (see the module docstring).
    """

    def __init__(self, session, workers: int = 4,
                 max_queue_depth: Optional[int] = None):
        self.session = session
        self.workers = max(1, int(workers))
        self.max_queue_depth = (None if max_queue_depth is None
                                else max(1, int(max_queue_depth)))
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        # client -> deque[_Job]; dict order is the round-robin rotation.
        self._queues: "OrderedDict[object, deque]" = OrderedDict()
        self._depth = 0
        self._inflight: dict = {}
        self.closed = False
        self.executed = 0
        self.coalesced = 0
        self.admitted = 0
        self.shed = 0
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"tdp-serve-{i}")
            for i in range(self.workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, statement: str, device: str = "cpu",
               extra_config: Optional[Mapping[str, object]] = None,
               toPandas: bool = False, client: Optional[str] = None) -> Future:
        """Admit one statement into the ready queue.

        ``client`` labels the submitting stream for round-robin fairness
        (``None`` pools into one shared anonymous stream). Raises
        :class:`ServerOverloaded` when admission control sheds the request.
        """
        config = QueryConfig(extra_config)   # validate at submission time
        key = None
        # toPandas results are mutable DataFrames a client may edit in
        # place: those never coalesce (each caller gets its own run), so
        # serving stays observably equivalent to serialized execution.
        if not config.trainable and not toPandas \
                and not _ddl_statement(statement):
            key = (statement, str(as_device(device)), config.fingerprint())
        future: Future = Future()
        job = _Job(statement, device, extra_config, toPandas, future, key,
                   client=client)
        metrics = self.session.metrics
        with self._lock:
            if self.closed:
                raise RuntimeError("scheduler is shut down")
            shed = (self.max_queue_depth is not None
                    and self._depth >= self.max_queue_depth)
            if shed:
                self.shed += 1
            else:
                self._enqueue_locked(job)
                self.admitted += 1
                self._ready.notify()
        # Metric increments happen outside the lock.
        if shed:
            metrics.counter("scheduler.shed").inc()
            raise ServerOverloaded(
                f"ready queue is full ({self.max_queue_depth} queued "
                f"requests)")
        metrics.counter("scheduler.admitted").inc()
        return future

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self.closed:
                return
            self.closed = True
            # Workers drain the remaining backlog, then exit on empty.
            self._ready.notify_all()
        if wait:
            for thread in self._threads:
                thread.join()

    @property
    def queue_depth(self) -> int:
        """Number of admitted jobs not yet picked up by a worker."""
        with self._lock:
            return self._depth

    @property
    def stats(self) -> dict:
        # Snapshot under the same lock that increments the counters, so a
        # reader can never observe a torn (executed, coalesced) pair — the
        # stat-tear class PR 4 fixed in the caches.
        with self._lock:
            return {"executed": self.executed, "coalesced": self.coalesced,
                    "workers": self.workers, "depth": self._depth,
                    "admitted": self.admitted, "shed": self.shed}

    # ------------------------------------------------------------------
    # Ready queue (all helpers hold self._lock)
    # ------------------------------------------------------------------
    def _enqueue_locked(self, job: _Job) -> None:
        queue = self._queues.get(job.client)
        if queue is None:
            queue = self._queues[job.client] = deque()
        queue.append(job)
        self._depth += 1

    def _dequeue_locked(self) -> Optional[_Job]:
        """Round-robin across the clients with queued jobs."""
        while True:
            if self._depth:
                client, queue = next(iter(self._queues.items()))
                job = queue.popleft()
                # Rotate the client to the back: the next dequeue serves a
                # different client.
                self._queues.move_to_end(client)
                if not queue:
                    del self._queues[client]
                self._depth -= 1
                return job
            if self.closed:
                return None
            self._ready.wait()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _version_stamp(self) -> tuple:
        session = self.session
        return (session.catalog.writes, session.functions.version,
                session.indexes.epoch)

    def _worker(self) -> None:
        while True:
            with self._lock:
                job = self._dequeue_locked()
            if job is None:
                return
            self._run_job(job)

    def _run_job(self, job: _Job) -> None:
        if not job.future.set_running_or_notify_cancel():
            return
        # Every dequeued job observes queue wait (coalesced ones included):
        # the histogram's count equals total jobs dequeued.
        self.session.metrics.histogram("scheduler.queue_wait_seconds").observe(
            time.monotonic() - job.submitted)
        if job.key is not None and self._join_leader(job):
            return
        try:
            stamp = self._version_stamp()
            query = self.session.compile_query(
                job.statement, device=job.device,
                extra_config=job.extra_config)
            # Only a plan whose every run returns the same result may lead:
            # a follower receives the leader's result in place of its own run.
            if job.key is not None and query.deterministic \
                    and self._join_leader(job, lead_stamp=stamp):
                return
            result = query.run(toPandas=job.toPandas)
        except BaseException as exc:
            self._finish(job, None, exc)
        else:
            self._finish(job, result, None)

    def _join_leader(self, job: _Job, lead_stamp=None) -> bool:
        """Attach ``job`` to an in-flight identical statement at the current
        versions and return True. Otherwise return False, after registering
        ``job`` as the leader for its key when ``lead_stamp`` (the versions
        it compiled at) is given."""
        with self._lock:
            leader = self._inflight.get(job.key)
            if leader is None or leader.stamp != self._version_stamp():
                if lead_stamp is not None:
                    job.stamp = lead_stamp
                    self._inflight[job.key] = job
                return False
            # The follower receives the leader's result object, exactly as
            # a second serialized run would receive an equal result.
            leader.followers.append(job.future)
            self.coalesced += 1
        self.session.metrics.counter("scheduler.coalesced").inc()
        return True

    def _finish(self, job: _Job, result, exc) -> None:
        followers: List[Future] = []
        with self._lock:
            if job.key is not None and self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            followers = job.followers
            self.executed += 1
        self.session.metrics.counter("scheduler.executed").inc()
        for future in (job.future, *followers):
            if exc is not None:
                future.set_exception(exc)
            else:
                future.set_result(result)


def _ddl_statement(statement: str) -> bool:
    from repro.core.session import _DDL_PREFIX
    return _DDL_PREFIX.match(statement) is not None
