"""Concurrent query serving: worker pool, statement coalescing, admission
control and per-client fairness.

The paper frames TDP as a *system* serving mixed AI+SQL workloads. Inference
batching is left to the tensor runtime: each UDF call already runs over a
whole column micro-batch, so this layer schedules *statements*, not encoder
calls:

* :class:`QueryScheduler` — a worker pool behind ``Session.submit`` /
  ``Session.serve``. Statements execute exactly as ``compile_query().run()``
  would (same plan cache, same tensor cache, same locks), so results are
  identical to serialized execution.

* **Statement coalescing** — identical statements in flight at the same
  catalog/UDF/index versions share one execution: the first submission
  becomes the *leader*, later duplicates attach their futures and receive
  the leader's result object (the request-collapse technique CDNs use
  against thundering herds). This is what keeps throughput up in the
  eviction-bound regime where the working set exceeds the materialization
  cache: concurrent demand is served once even when nothing can be
  retained. DDL and trainable statements never coalesce; a registry change
  between two submissions (version stamp mismatch) disqualifies joining, so
  a follower never observes pre-DDL state submitted post-DDL.

* **Admission control** — the serving front door (``Session.aquery``,
  ``core/server.py``) cannot let an overloaded queue grow without bound:
  unbounded queueing turns a 2x overload into unbounded p99 (every request
  waits behind the whole backlog). ``max_queue_depth`` caps the number of
  *queued* (not yet running) requests; beyond it the scheduler rejects the
  new request with a typed :class:`~repro.errors.ServerOverloaded` (reason
  ``queue_full``). A request carrying a ``deadline`` hint is also shed at
  admission when the observed
  ``scheduler.queue_wait_seconds`` p95 already exceeds its budget, and
  dropped (``QueryDeadlineExceeded``) at dequeue if its budget lapsed while
  it waited — running a query whose client already timed out only steals
  capacity from requests that can still meet their SLO.

* **Per-client fairness + priority** — the queue is not FIFO across
  requests: it is round-robin across *clients* within a priority class
  (one greedy client submitting 100 statements cannot starve a client
  submitting 1), and strict across classes (``extra_config={"priority":
  N}``; higher dequeues first, so an interactive request overtakes a bulk
  backlog without preempting running work).

Locking rules (engine-wide ordering, see ROADMAP "Concurrent serving"):
the scheduler lock is a leaf — no engine lock is acquired while holding it.
Future callbacks (``set_result``/``set_exception``) always fire outside the
scheduler lock: an ``asyncio.wrap_future`` callback or user callback may
re-enter ``submit``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import List, Mapping, Optional

from repro.core.config import QueryConfig
from repro.errors import QueryDeadlineExceeded, ServerOverloaded
from repro.tcr.device import as_device


class _Job:
    __slots__ = ("statement", "device", "extra_config", "toPandas", "future",
                 "key", "stamp", "followers", "submitted", "client",
                 "priority", "deadline")

    def __init__(self, statement, device, extra_config, toPandas, future, key,
                 client=None, priority=0, deadline=None):
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
        self.priority = priority
        self.deadline = deadline


# Minimum queue-wait observations before the histogram's p95 is trusted for
# deadline-aware admission (a handful of samples predicts nothing).
_PREDICT_MIN_SAMPLES = 16


class QueryScheduler:
    """Worker pool serving one session's statements concurrently.

    ``submit`` returns a ``concurrent.futures.Future``; ``shutdown`` drains
    the pool. Statements run through the ordinary ``Session.compile_query``
    → ``CompiledQuery.run`` path (plan cache, tensor cache, locks), so a
    scheduled statement's result is the result serialized execution would
    produce.

    The ready queue is priority-strict and client-fair: jobs dequeue from
    the highest priority class first, round-robin across the clients inside
    it. ``max_queue_depth`` bounds the queued backlog; over it, admission
    rejects the new request (see the module docstring).
    """

    def __init__(self, session, workers: int = 4, coalesce: bool = True,
                 max_queue_depth: Optional[int] = None):
        self.session = session
        self.workers = max(1, int(workers))
        self.coalesce = bool(coalesce)
        self.max_queue_depth = (None if max_queue_depth is None
                                else max(1, int(max_queue_depth)))
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        # priority -> OrderedDict[client, deque[_Job]]; dict order inside a
        # priority class is the round-robin rotation.
        self._queues: dict = {}
        self._depth = 0
        self._inflight: dict = {}
        self.closed = False
        self.executed = 0
        self.coalesced = 0
        self.admitted = 0
        self.shed = 0
        self.deadline_missed = 0
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
        :class:`ServerOverloaded` when admission control sheds the request;
        a queued request expiring in the queue (``deadline``) receives
        :class:`QueryDeadlineExceeded` through its future instead.
        """
        config = QueryConfig(extra_config)   # validate at submission time
        priority = config.priority
        deadline = config.deadline
        key = None
        # toPandas results are mutable DataFrames a client may edit in
        # place: those never coalesce (each caller gets its own run), so
        # serving stays observably equivalent to serialized execution.
        if self.coalesce and not config.trainable and not toPandas \
                and not _ddl_statement(statement):
            key = (statement, str(as_device(device)), config.fingerprint())
        future: Future = Future()
        job = _Job(statement, device, extra_config, toPandas, future, key,
                   client=client, priority=priority, deadline=deadline)
        metrics = self.session.metrics
        # Deadline-aware admission reads the queue-wait histogram *before*
        # taking the scheduler lock (the estimate may be a submission stale;
        # admission is a heuristic, the dequeue-time check is the backstop).
        predicted_wait = None
        if deadline is not None:
            hist = metrics.histogram("scheduler.queue_wait_seconds")
            if hist.count >= _PREDICT_MIN_SAMPLES:
                predicted_wait = hist.quantile(0.95)
        shed_reason = None
        with self._lock:
            if self.closed:
                raise RuntimeError("scheduler is shut down")
            if deadline is not None and predicted_wait is not None \
                    and self._depth >= self.workers \
                    and predicted_wait > deadline:
                shed_reason = "predicted_wait"
            elif self.max_queue_depth is not None \
                    and self._depth >= self.max_queue_depth:
                shed_reason = "queue_full"
            if shed_reason is not None:
                self.shed += 1
            else:
                self._enqueue_locked(job)
                self.admitted += 1
                self._ready.notify()
        # Metric increments happen outside the lock.
        if shed_reason is not None:
            metrics.counter("scheduler.shed").inc()
            if shed_reason == "predicted_wait":
                raise ServerOverloaded(
                    f"observed queue wait p95 ({predicted_wait:.3f}s) exceeds "
                    f"the request deadline ({deadline:.3f}s)",
                    reason=shed_reason)
            raise ServerOverloaded(
                f"ready queue is full ({self.max_queue_depth} queued "
                f"requests)", reason=shed_reason)
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
                    "admitted": self.admitted, "shed": self.shed,
                    "deadline_missed": self.deadline_missed}

    # ------------------------------------------------------------------
    # Ready queue (all helpers hold self._lock)
    # ------------------------------------------------------------------
    def _enqueue_locked(self, job: _Job) -> None:
        clients = self._queues.setdefault(job.priority, OrderedDict())
        queue = clients.get(job.client)
        if queue is None:
            queue = clients[job.client] = deque()
        queue.append(job)
        self._depth += 1

    def _dequeue_locked(self) -> Optional[_Job]:
        """Highest priority class first; round-robin across its clients."""
        while True:
            if self._depth:
                priority = max(self._queues)
                clients = self._queues[priority]
                client = next(iter(clients))
                queue = clients[client]
                job = queue.popleft()
                # Rotate the client to the back of its class: the next
                # dequeue at this priority serves a different client.
                clients.move_to_end(client)
                if not queue:
                    del clients[client]
                if not clients:
                    del self._queues[priority]
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
        return (session.catalog.version, session.functions.version,
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
        metrics = self.session.metrics
        # Every dequeued job observes queue wait (coalesced ones included):
        # the histogram's count equals total jobs dequeued, which the
        # admission-control consumer reads against executed + coalesced.
        waited = time.monotonic() - job.submitted
        metrics.histogram("scheduler.queue_wait_seconds").observe(waited)
        if job.deadline is not None and waited > job.deadline:
            # The budget lapsed in the queue: drop rather than execute.
            with self._lock:
                self.deadline_missed += 1
            metrics.counter("scheduler.deadline_missed").inc()
            job.future.set_exception(QueryDeadlineExceeded(
                f"queued for {waited:.3f}s, past the {job.deadline:.3f}s "
                f"deadline"))
            return
        if job.key is not None:
            with self._lock:
                leader = self._inflight.get(job.key)
                if leader is not None and leader.stamp == self._version_stamp():
                    # Coalesce: ride the in-flight execution. The follower
                    # receives the leader's result object, exactly as a
                    # second serialized run would receive an equal result.
                    leader.followers.append(job.future)
                    self.coalesced += 1
                    metrics.counter("scheduler.coalesced").inc()
                    return
                job.stamp = self._version_stamp()
                self._inflight[job.key] = job
        try:
            result = self._execute(job)
        except BaseException as exc:
            self._finish(job, None, exc)
        else:
            self._finish(job, result, None)

    def _execute(self, job: _Job):
        query = self.session.compile_query(
            job.statement, device=job.device, extra_config=job.extra_config)
        return query.run(toPandas=job.toPandas)

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
