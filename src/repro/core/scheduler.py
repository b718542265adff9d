"""Concurrent query serving: worker pool, statement coalescing, and
cross-query inference batching.

The paper frames TDP as a *system* serving mixed AI+SQL workloads; NeurDB
and "Towards Effective Orchestration of AI x DB Workloads" both argue that
the win in concurrent AI-database serving comes from scheduling inference
*across* queries, not just caching within one. This module is that layer:

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

* :class:`InferenceBatcher` — the cross-query inference scheduler. The CPU
  device profile dispatches UDFs row-at-a-time (the paper's Fig 2
  mechanism), so N concurrent similarity queries over one corpus each
  stream the same encoder micro-batches. The batcher intercepts encoder
  calls (via the tensor-cache encoder memo) and holds each request briefly;
  when every actively-encoding worker has a request pending (or a 2 ms
  window lapses), the batch flushes: identical-content requests collapse
  into **one forward pass** whose result is handed to every waiter and
  scattered back through the existing TensorCache per-slice keys — PR 3's
  slice-entry machinery extended with an in-flight rendezvous. The effect
  is a convoy: N queries advance row by row over the corpus paying one
  encode per row instead of N. Distinct requests run their own forwards,
  so concurrent serving stays bit-identical with serialized execution.

* **Admission control** — the serving front door (``Session.aquery``,
  ``core/server.py``) cannot let an overloaded queue grow without bound:
  unbounded queueing turns a 2x overload into unbounded p99 (every request
  waits behind the whole backlog). ``max_queue_depth`` caps the number of
  *queued* (not yet running) requests; beyond it the scheduler sheds load
  with a typed :class:`~repro.errors.ServerOverloaded` — either the new
  request (``shed_policy="reject"``) or the oldest queued request of the
  lowest priority class (``shed_policy="oldest"``). A request carrying a
  ``deadline`` hint is also shed at admission when the observed
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

* **Adaptive batch window** — ``batch_window="auto"`` (the default) sizes
  the batcher's flush window from an EMA of encode-request inter-arrival
  times instead of the historical fixed 2 ms: busy convoys shrink the
  window toward the arrival period (less added latency), sparse traffic
  keeps a wider net. The chosen window is published as the
  ``batcher.window_seconds`` gauge in ``Session.metrics``.

Locking rules (engine-wide ordering, see ROADMAP "Concurrent serving"):
scheduler lock and batcher condition are leaves — no engine lock is
acquired while holding them, and the batcher computes forwards *outside*
its condition so waiting threads only block on the GIL-released numpy work.
Future callbacks (``set_result``/``set_exception``) always fire outside the
scheduler lock: an ``asyncio.wrap_future`` callback or user callback may
re-enter ``submit``.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from typing import List, Mapping, Optional, Sequence

from repro.core import tensor_cache as tc
from repro.core.config import QueryConfig
from repro.core.telemetry import Ewma, span, tracing
from repro.errors import QueryDeadlineExceeded, ServerOverloaded
from repro.tcr.device import as_device


class _EncodeRequest:
    """One pending encoder micro-batch (a worker blocked on its result)."""

    __slots__ = ("key", "model", "orig", "images", "tag", "token", "fp",
                 "cache", "done", "taken", "result", "exc")

    def __init__(self, key, model, orig, images, tag, token, fp, cache):
        self.key = key
        self.model = model
        self.orig = orig
        self.images = images
        self.tag = tag
        self.token = token
        self.fp = fp
        self.cache = cache
        self.done = False
        self.taken = False
        self.result = None
        self.exc = None


# Adaptive-window clamp (seconds) and shaping for ``window="auto"``: the
# flush deadline follows a few average inter-arrival gaps, so a convoy's
# next request reliably lands inside the window while a lone query's
# worst-case added latency stays bounded by AUTO_WINDOW_MAX.
AUTO_WINDOW_SEED = 0.002      # until enough arrivals are observed
AUTO_WINDOW_MIN = 0.0005
AUTO_WINDOW_MAX = 0.008
AUTO_WINDOW_GAPS = 4.0        # window covers ~this many average gaps
_AUTO_MIN_SAMPLES = 4         # EMA warm-up before the window moves
_AUTO_IDLE_GAP = 1.0          # gaps above this mean "no load", not "slow"


class InferenceBatcher:
    """Coalesce concurrent queries' encoder micro-batches for the same
    (model, device) into one forward pass.

    Requests rendezvous on a condition variable. A request flushes the
    pending set when every worker currently known to be encoding is blocked
    here (nothing new can arrive until someone is released) or when the
    batch window lapses — so a lone query pays zero added latency, while N
    lockstep queries pay one forward per distinct micro-batch.

    ``window`` is either a fixed number of seconds or ``"auto"``: size the
    window from the observed encode-request arrival rate (EMA of
    inter-arrival times, clamped to [AUTO_WINDOW_MIN, AUTO_WINDOW_MAX]).
    """

    def __init__(self, window=0.002, session=None):
        self.auto_window = window == "auto"
        self.window = AUTO_WINDOW_SEED if self.auto_window else float(window)
        # Arrival-rate tracking for the adaptive window. _window_lock is a
        # leaf (never held while taking the condition or any engine lock).
        self._window_lock = threading.Lock()
        self._arrivals = Ewma("batcher.interarrival_seconds")
        self._last_arrival: Optional[float] = None
        # The owning session, for mirroring lifetime counters into its
        # MetricsRegistry (read dynamically: Session.reset swaps registries).
        self._session = session
        self._cond = threading.Condition()
        self._pending: List[_EncodeRequest] = []
        self._inflight: dict = {}
        # Both sets hold thread idents (see _scope_key): encode streams seen
        # encoding, and streams currently waiting in encode(). A thread runs
        # one statement at a time and shard tasks never encode, so a thread
        # is one encode stream.
        self._encoders: set = set()
        self._blocked: set = set()
        self.requests = 0
        self.joins = 0
        self.forwards = 0

    # ------------------------------------------------------------------
    # Worker bookkeeping (called by QueryScheduler)
    # ------------------------------------------------------------------
    @staticmethod
    def _scope_key():
        """Registration key for the calling encode stream: its thread."""
        return threading.get_ident()

    def statement_finished(self) -> None:
        """The calling encode stream ended: stop waiting for it."""
        key = self._scope_key()
        with self._cond:
            self._encoders.discard(key)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # The rendezvous
    # ------------------------------------------------------------------
    @property
    def _metrics(self):
        return self._session.metrics if self._session is not None else None

    def _observe_arrival(self) -> None:
        """Fold one encode-request arrival into the adaptive window."""
        now = time.monotonic()
        with self._window_lock:
            last = self._last_arrival
            self._last_arrival = now
            if last is None:
                return
            gap = now - last
            if gap > _AUTO_IDLE_GAP:
                # An idle stretch says nothing about the next convoy's
                # arrival rate; restart the gap chain without polluting
                # the EMA.
                return
            average = self._arrivals.observe(gap)
            if self._arrivals.count < _AUTO_MIN_SAMPLES:
                return
            window = min(max(average * AUTO_WINDOW_GAPS, AUTO_WINDOW_MIN),
                         AUTO_WINDOW_MAX)
            self.window = window
        metrics = self._metrics
        if metrics is not None:
            metrics.gauge("batcher.window_seconds").set(window)

    def encode(self, model, orig, images, tag, token, fp, cache):
        """Serve one encoder micro-batch, coalescing with concurrent
        identical requests."""
        if self.auto_window:
            self._observe_arrival()
        if not tracing():
            return self._encode(model, orig, images, tag, token, fp, cache)
        rows = images.shape[0] if images.ndim else 1
        # The span lands inside the requesting query's open operator span,
        # so rendezvous wait is attributed to the operator that encoded.
        with span("batcher_encode", rows=rows):
            return self._encode(model, orig, images, tag, token, fp, cache)

    def _encode(self, model, orig, images, tag, token, fp, cache):
        scope = self._scope_key()
        key = (token, str(images.device), tag.base, tag.rows_fp)
        device = str(images.device)
        batch = None
        joined = None
        with self._cond:
            self.requests += 1
            self._encoders.add(scope)
            req = self._inflight.get(key)
            if req is not None:
                # In-flight dedup: the same (model, content) is pending or
                # computing — wait for that single forward pass.
                self.joins += 1
                self._blocked.add(scope)
                try:
                    while not req.done:
                        self._cond.wait(0.05)
                finally:
                    self._blocked.discard(scope)
                joined = req
            else:
                req = _EncodeRequest(key, model, orig, images, tag, token,
                                     fp, cache)
                self._pending.append(req)
                self._inflight[key] = req
                self._blocked.add(scope)
                deadline = time.monotonic() + self.window
                try:
                    while not req.done:
                        if req.taken:
                            # Another flusher owns the batch containing us.
                            self._cond.wait(0.05)
                            continue
                        now = time.monotonic()
                        if self._flush_due() or now >= deadline:
                            batch = self._pending
                            self._pending = []
                            for r in batch:
                                r.taken = True
                            break
                        self._cond.wait(min(self.window,
                                            max(deadline - now, 1e-4)))
                finally:
                    self._blocked.discard(scope)
        metrics = self._metrics
        if metrics is not None:
            metrics.counter("batcher.requests").inc()
        if joined is not None:
            if metrics is not None:
                metrics.counter("batcher.joins").inc()
            # Cache write-back outside the condition (it takes the cache
            # lock and may copy a tensor; the rendezvous must never block
            # on it), and only when the computing request couldn't reach
            # this cache itself (e.g. its query ran with the cache off).
            if joined.exc is not None:
                raise joined.exc
            if cache is not None and fp is not None \
                    and joined.cache is not cache:
                cache.encoded_put(token, fp, tag, device,
                                  joined.result.detach())
            return joined.result
        if batch is not None:
            with span("batcher_flush", batch_size=len(batch)):
                self._run_batch(batch)
        if req.exc is not None:
            raise req.exc
        return req.result

    def _flush_due(self) -> bool:
        # Flush once everyone who could still contribute a micro-batch is
        # already waiting here (callers hold the condition).
        return bool(self._pending) and self._encoders <= self._blocked

    # ------------------------------------------------------------------
    # Execution (outside the condition: numpy releases the GIL)
    # ------------------------------------------------------------------
    def _run_batch(self, batch: List[_EncodeRequest]) -> None:
        # Counter deltas accumulate locally and publish under the condition
        # at the end: two flushers can run concurrently (a second batch
        # forms while the first computes), and unlocked `+=` would lose
        # updates.
        forwards = 0
        try:
            # Independent forwards fail independently — one query's bad
            # encode must not fail its batchmates.
            for req in batch:
                try:
                    forwards += 1
                    req.result = req.orig(req.images)
                except BaseException as exc:
                    req.exc = exc
            for req in batch:
                if req.exc is None and req.cache is not None \
                        and req.fp is not None:
                    try:
                        req.cache.encoded_put(req.token, req.fp, req.tag,
                                              str(req.images.device),
                                              req.result.detach())
                    except BaseException as exc:
                        req.exc = exc
        finally:
            # Publish in a finally: if anything above raised, waiters must
            # still be released (with the exception set) rather than spin
            # forever on req.done.
            with self._cond:
                self.forwards += forwards
                for req in batch:
                    if req.exc is None and req.result is None:
                        req.exc = RuntimeError(
                            "inference batch aborted before this request ran")
                    req.done = True
                    self._inflight.pop(req.key, None)
                self._cond.notify_all()
            metrics = self._metrics
            if metrics is not None:
                # Outside the condition: Counter has its own leaf lock.
                metrics.counter("batcher.forwards").inc(forwards)

    @property
    def stats(self) -> dict:
        with self._cond:
            return {
                "requests": self.requests, "joins": self.joins,
                "forwards": self.forwards,
                "window_seconds": self.window,
                "auto_window": self.auto_window,
            }


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
    sheds load according to ``shed_policy`` (see the module docstring).
    """

    def __init__(self, session, workers: int = 4, coalesce: bool = True,
                 batch_inference: bool = True,
                 batch_window="auto", max_queue_depth: Optional[int] = None,
                 shed_policy: str = "reject"):
        self.session = session
        self.workers = max(1, int(workers))
        self.coalesce = bool(coalesce)
        self.max_queue_depth = (None if max_queue_depth is None
                                else max(1, int(max_queue_depth)))
        if shed_policy not in ("reject", "oldest"):
            raise ValueError(
                f"shed_policy must be 'reject' or 'oldest', got {shed_policy!r}")
        self.shed_policy = shed_policy
        self.batcher = (InferenceBatcher(window=batch_window, session=session)
                        if batch_inference else None)
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
        a queued request displaced later (``shed_policy="oldest"``) or
        expiring in the queue (``deadline``) receives the typed exception
        through its future instead.
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
        victim: Optional[_Job] = None
        with self._lock:
            if self.closed:
                raise RuntimeError("scheduler is shut down")
            if deadline is not None and predicted_wait is not None \
                    and self._depth >= self.workers \
                    and predicted_wait > deadline:
                shed_reason = "predicted_wait"
            elif self.max_queue_depth is not None \
                    and self._depth >= self.max_queue_depth:
                if self.shed_policy == "oldest":
                    victim = self._evict_oldest_locked(priority)
                if victim is None:
                    shed_reason = "queue_full"
            if shed_reason is not None:
                self.shed += 1
            else:
                self._enqueue_locked(job)
                self.admitted += 1
                self._ready.notify()
        # Future callbacks and metric increments happen outside the lock.
        if victim is not None:
            metrics.counter("scheduler.shed").inc()
            victim.future.set_exception(ServerOverloaded(
                f"request displaced from the queue by a newer submission "
                f"(shed_policy='oldest', max_queue_depth="
                f"{self.max_queue_depth})", reason="displaced"))
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

    def map(self, statements: Sequence[str], device: str = "cpu",
            extra_config: Optional[Mapping[str, object]] = None,
            toPandas: bool = False, client: Optional[str] = None) -> List[object]:
        """Submit a batch and collect results in submission order."""
        futures = [self.submit(s, device=device, extra_config=extra_config,
                               toPandas=toPandas, client=client)
                   for s in statements]
        return [f.result() for f in futures]

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
            out = {"executed": self.executed, "coalesced": self.coalesced,
                   "workers": self.workers, "depth": self._depth,
                   "admitted": self.admitted, "shed": self.shed,
                   "deadline_missed": self.deadline_missed}
        if self.batcher is not None:
            out["batcher"] = self.batcher.stats
        return out

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

    def _evict_oldest_locked(self, new_priority: int) -> Optional[_Job]:
        """Displace the oldest queued job of the lowest priority class.

        Returns ``None`` (caller rejects the *new* request instead) when
        everything queued outranks the incoming priority — load shedding
        must never displace higher-priority work for lower.
        """
        if not self._depth:
            return None
        lowest = min(self._queues)
        if lowest > new_priority:
            return None
        clients = self._queues[lowest]
        # Deques are FIFO per client, so each head is that client's oldest.
        client = min(clients, key=lambda c: clients[c][0].submitted)
        queue = clients[client]
        job = queue.popleft()
        if not queue:
            del clients[client]
        if not clients:
            del self._queues[lowest]
        self._depth -= 1
        return job

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
        scope = (tc.batching(self.batcher) if self.batcher is not None
                 else contextlib.nullcontext())
        try:
            with scope:
                query = self.session.compile_query(
                    job.statement, device=job.device,
                    extra_config=job.extra_config)
                return query.run(toPandas=job.toPandas)
        finally:
            if self.batcher is not None:
                self.batcher.statement_finished()

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
