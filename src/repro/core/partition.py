"""Partition-driver layer for intra-query parallel execution (sharded scans).

"Query Processing on Tensor Computation Runtimes" (He et al.) shows that
data-parallel partitioning is how a tensor-runtime engine saturates
multi-core hardware. The scheduler runs statements side by side; this layer
splits one statement's join inputs: a base-table scan that feeds a join
splits into K contiguous row shards, its Filter/Project chain runs per
shard, and the outputs stitch back in shard order. Contiguous row ranges
are the only partitioning and ``shards`` the only switch; inputs under
``PARALLEL_MIN_ROWS`` rows stay whole. The one driver,
:class:`~repro.core.operators.sharded.ShardedScanExec`, is chosen while the
plan is lowered, and only for statements that call no UDF, TVF or
similarity top-k, so no user code ever runs on a shard.

One invariant makes sharded execution bit-identical with serial execution:
**deterministic stitch order**. Shards are contiguous row ranges and the
driver concatenates their outputs in range order, so every downstream
operator sees exactly the rows (and row order) serial execution produces.

The :class:`ShardPool` is the worker side: a small set of daemon helper
threads shared by the whole session, plus *submitter helping* — the thread
that submits a shard batch also drains the queue until its batch completes.
Shard tasks are leaves (they never wait on other shard tasks or on the
pool), so scheduler workers running whole statements can submit shard
batches concurrently without deadlock: pool primitives stay leaf-level in
the PR 4 lock order, and the submitter always makes progress on its own
tasks even when every helper is busy with another query's shards.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.operators.base import Relation
from repro.errors import ExecutionError
from repro.storage.column import Column, concat_encoded
from repro.storage.table import Table
from repro.tcr.autograd import no_grad


# Inputs with fewer base rows are not worth splitting: they run serially.
PARALLEL_MIN_ROWS = 64


def default_shards() -> int:
    """Shard count for ``shards=0`` (auto): one per available core."""
    return max(os.cpu_count() or 1, 1)


def plan_shards(num_rows: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, num_rows)`` into at most ``shards`` contiguous ranges.

    Returns a single full range (serial execution) when the input is too
    small to be worth splitting (``num_rows < PARALLEL_MIN_ROWS``).
    """
    if num_rows <= 0:
        return [(0, 0)]
    if shards <= 1 or num_rows < max(PARALLEL_MIN_ROWS, 2):
        return [(0, num_rows)]
    chunk = -(-num_rows // shards)                 # ceil division
    bounds = []
    start = 0
    while start < num_rows:
        stop = min(start + chunk, num_rows)
        bounds.append((start, stop))
        start = stop
    return bounds


# ----------------------------------------------------------------------
# Stitching shard outputs back into one relation
# ----------------------------------------------------------------------
def _concat_columns(pieces: Sequence[Column]) -> Column:
    """Concatenate one output column's shard pieces in shard order.

    Encodings must agree across pieces (they do by construction: every
    shard runs the same operator pipeline over slices of the same base
    columns, so dictionary/probability encodings are the *same object* and
    computed columns are all plain).
    """
    first = pieces[0]
    encoded = concat_encoded(pieces)
    if encoded is None:
        raise ExecutionError(
            f"cannot stitch shard outputs of column {first.name!r}: "
            f"shards produced different encodings"
        )
    return Column(first.name, encoded)


def stitch_relations(pieces: Sequence[Relation]) -> Relation:
    """Merge per-shard output relations in shard order (the deterministic
    merge barrier)."""
    pieces = [p for p in pieces if p is not None]
    if not pieces:
        raise ExecutionError("stitch_relations needs at least one shard output")
    if len(pieces) == 1:
        return pieces[0]
    if any(p.weights is not None for p in pieces):
        raise ExecutionError("sharded execution does not support soft row weights")
    first = pieces[0].table
    columns = []
    for idx in range(first.num_columns):
        columns.append(_concat_columns([p.table.columns[idx] for p in pieces]))
    return Relation(Table(first.name, columns))


# ----------------------------------------------------------------------
# The shard worker pool
# ----------------------------------------------------------------------
class _ShardTask:
    __slots__ = ("fn", "ctx", "batch", "index", "result", "exc", "claimed")

    def __init__(self, fn, ctx, batch, index):
        self.fn = fn
        self.ctx = ctx
        self.batch = batch
        self.index = index
        self.result = None
        self.exc = None
        self.claimed = False


class _ShardBatch:
    __slots__ = ("remaining",)

    def __init__(self, count: int):
        self.remaining = count


class ShardPool:
    """Daemon helper threads + submitter-helping execution of shard tasks.

    ``run(fns)`` executes every callable (each under its own copy of the
    submitter's :mod:`contextvars` context, so the active trace propagates
    to helper threads) and
    returns their results in order, re-raising the first exception by shard
    order after the whole batch has settled.

    Tasks are required to be leaves: they must not submit to or wait on the
    pool. Under that contract the pool cannot deadlock — helpers only ever
    block on an empty queue, and a submitter stuck waiting always finds its
    own unclaimed tasks to execute.
    """

    def __init__(self, workers: Optional[int] = None,
                 idle_timeout: float = 5.0):
        self.workers = default_shards() if workers is None else max(int(workers), 0)
        self.idle_timeout = float(idle_timeout)
        self._cond = threading.Condition()
        self._queue: "deque[_ShardTask]" = deque()
        self._threads: List[threading.Thread] = []
        self.batches = 0
        self.tasks_run = 0
        self.helper_tasks = 0

    # ------------------------------------------------------------------
    def _spawn_helpers(self, wanted: int) -> None:
        # Callers hold the condition. Helper threads are created lazily and
        # capped at the pool size; a 1-core box gets one helper and the
        # submitter does most of the work itself.
        while len(self._threads) < min(wanted, self.workers):
            thread = threading.Thread(target=self._helper, daemon=True,
                                      name=f"tdp-shard-{len(self._threads)}")
            self._threads.append(thread)
            thread.start()

    def _helper(self) -> None:
        # Helpers retire after a few idle seconds (and respawn on the next
        # batch): long-lived processes creating many sessions must not
        # accumulate parked threads.
        me = threading.current_thread()
        idle_since = time.monotonic()
        while True:
            with self._cond:
                while not self._queue:
                    if time.monotonic() - idle_since > self.idle_timeout:
                        try:
                            self._threads.remove(me)
                        except ValueError:
                            pass
                        return
                    self._cond.wait(min(self.idle_timeout, 1.0))
                task = self._queue.popleft()
                task.claimed = True
                self.helper_tasks += 1
            self._run_task(task)
            idle_since = time.monotonic()

    def _run_task(self, task: _ShardTask) -> None:
        try:
            task.result = task.ctx.run(task.fn)
        except BaseException as exc:          # reported to the submitter
            task.exc = exc
        with self._cond:
            task.batch.remaining -= 1
            self.tasks_run += 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def run(self, fns: Sequence[Callable[[], object]]) -> List[object]:
        """Execute ``fns`` (possibly in parallel), results in input order."""
        if not fns:
            return []
        if len(fns) == 1:
            return [fns[0]()]
        batch = _ShardBatch(len(fns))
        tasks = [_ShardTask(fn, contextvars.copy_context(), batch, i)
                 for i, fn in enumerate(fns)]
        with self._cond:
            self.batches += 1
            self._queue.extend(tasks)
            self._spawn_helpers(len(fns) - 1)
            self._cond.notify_all()
        # Submitter helping: drain the queue (any query's tasks — shard work
        # from concurrent statements interleaves) until this batch settles.
        while True:
            with self._cond:
                if batch.remaining == 0:
                    break
                if self._queue:
                    task = self._queue.popleft()
                    task.claimed = True
                else:
                    self._cond.wait(0.05)
                    continue
            self._run_task(task)
        for task in tasks:
            if task.exc is not None:
                raise task.exc
        return [task.result for task in tasks]

    @property
    def stats(self) -> dict:
        with self._cond:
            return {"workers": self.workers, "threads": len(self._threads),
                    "batches": self.batches, "tasks": self.tasks_run,
                    "helper_tasks": self.helper_tasks}


def run_sharded(pool: Optional[ShardPool], fns: Sequence[Callable[[], object]]
                ) -> List[object]:
    """Run shard thunks through ``pool`` (serially when no pool is wired).

    Shard execution always happens inside the engine's inference scope, so
    each thunk is wrapped in ``no_grad()`` here: the grad flag is
    thread-local (not a contextvar) and helper threads would otherwise
    default to recording autograd graphs.
    """
    wrapped = [_no_grad_thunk(fn) for fn in fns]
    if pool is None:
        return [fn() for fn in wrapped]
    return pool.run(wrapped)


def _no_grad_thunk(fn):
    def run():
        with no_grad():
            return fn()
    return run
