"""Shared pieces of the end-to-end benchmark: paths, statistics, the span
recorder and the closed-loop driver.

Nothing here imports the engine at module import time; :func:`use_checkout`
puts the checkout's ``src`` on ``sys.path`` and the workload modules import
``repro`` after that.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
SEGMENTS = 3
MAX_SETUPS = 9
SETUP_BUDGET_S = 2.5


def use_checkout() -> None:
    """Make ``import repro`` resolve to this checkout's sources, or exit.

    The benchmark measures the program beside it. In a directory that holds
    only the benchmark there is no program, and falling back to a copy
    installed elsewhere would measure the wrong code, so that is an error.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"bench_e2e: no engine sources under {src}\n")
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)
    # Keep every file the engine reads or writes (trained TinyCLIP weights
    # when the committed ones are absent) inside the checkout, whatever the
    # caller's environment says.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(src, ".cache")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


median = statistics.median


def slice_medians(values: Sequence[float], size: int) -> List[float]:
    """The median of each run of ``size`` consecutive values (one run of
    them all when there are fewer)."""
    size = min(size, len(values))
    return [median(values[i:i + size]) for i in range(0, len(values) - size + 1, size)]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water resident set of this process, or of ``pid`` (Linux)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment(seed: int) -> dict:
    """The block every result file carries."""
    import numpy
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                sha = handle.read().strip()
        else:
            sha = ref
    except OSError:
        pass        # an exported checkout has no .git
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "seed": seed,
            "platform": platform.platform()}


# ----------------------------------------------------------------------
# Set-up and the closed loop
# ----------------------------------------------------------------------
def run_segments(build: Callable[[], object], close: Callable[[object], None],
                 measure: Callable[[object, float], None],
                 seconds: float) -> Tuple[float, float]:
    """Set up ``SEGMENTS`` times, measuring ``seconds / SEGMENTS`` on each
    state before dropping it. Returns the median set-up time and this
    process's peak RSS at the end of the first segment: what one state
    needs, without what the allocator kept of the states before it.

    One set-up is a single sample of a second or so and would be the
    noisiest number the benchmark prints, so a run makes several. Measuring
    on each of them, and not only the last, also averages what differs from
    one state to the next (thread placement, memory layout, the host's load
    during those seconds): pooled over three states the sharded round's
    median spread 5% from run to run, on one state 12 to 15%.

    The cheapest set-ups are the noisiest (0.1 s read 0.09 to 0.16 s), so
    after the segments more states are built, timed and dropped while a set
    of ``MAX_SETUPS`` is incomplete and ``SETUP_BUDGET_S`` not yet spent on
    set-up.
    """
    setups: List[float] = []
    rss_mb = 0.0
    while len(setups) < SEGMENTS or (
            len(setups) < MAX_SETUPS
            and sum(setups) + median(setups) <= SETUP_BUDGET_S):
        start = time.perf_counter()
        state = build()
        setups.append(time.perf_counter() - start)
        try:
            if len(setups) <= SEGMENTS:
                measure(state, seconds / SEGMENTS)
                rss_mb = rss_mb or peak_rss_mb()
        finally:
            close(state)
            del state
            gc.collect()        # sessions are cyclic; free one before the next
    return median(setups), rss_mb


class OpLog:
    """Per-operation outcomes of one measured window."""

    def __init__(self):
        self.latencies: List[float] = []    # seconds, successful or not
        self.failed = 0
        self.notes: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(note)

    def absorb(self, other: "OpLog") -> None:
        """Count another window's operations and failures into this one."""
        self.latencies.extend(other.latencies)
        self.failed += other.failed
        self.notes.extend(other.notes)

    def end_to_end(self, setup_s: float, rss_mb: float) -> Dict[str, float]:
        """The end-to-end metrics of a closed loop. Throughput is operations
        over the time the client spent inside them: the harness's checking
        between operations is not the program's time."""
        return {
            "setup_s": setup_s,
            "op_p50_ms": median(self.latencies) * 1e3,
            "ops_per_s": self.attempted / sum(self.latencies),
            "peak_rss_mb": rss_mb,
        }

    def p90_ms(self) -> float:
        return percentile(self.latencies, 90) * 1e3


def closed_loop(operation: Callable[[int], Tuple[float, Optional[str]]],
                seconds: float, log: OpLog, min_ops: int = 3) -> None:
    """Call ``operation(i)`` back to back until ``seconds`` have passed.

    ``operation`` times itself and returns ``(latency_seconds, error)``, so
    a workload can keep its own checking outside the measured interval.
    """
    deadline = time.perf_counter() + seconds
    index = 0
    while index < min_ops or time.perf_counter() < deadline:
        latency, error = operation(index)
        log.latencies.append(latency)
        if error:
            log.fail(f"op {index}: {error}")
        index += 1


def time_call(fn: Callable[[], object], repeats: int) -> float:
    """Median wall time of ``fn()`` over ``repeats`` calls, in seconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples)


# ----------------------------------------------------------------------
# Spans recorded from the benchmark's own files
# ----------------------------------------------------------------------
class _SpanScope:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """In-memory span list: name, start, end, parent, operation id.

    Single-threaded by design: every span is opened by the benchmark's main
    thread around a call into one layer's public function. Spans the engine
    recorded itself (``telemetry=True``) are copied in with :meth:`adopt`.
    """

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None

    def span(self, name: str, op: Optional[int] = None) -> _SpanScope:
        if op is not None:
            self._op = op
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "op": self._op, "start": 0.0, "end": 0.0}
        self.spans.append(record)
        return _SpanScope(self, record)

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], op: Optional[int] = None) -> int:
        """Record a span measured elsewhere (already has its times)."""
        if op is not None:
            self._op = op
        record = {"id": len(self.spans), "name": name, "parent": parent,
                  "op": self._op, "start": start, "end": end}
        self.spans.append(record)
        return record["id"]

    def adopt(self, engine_span, parent: int, rename: Callable[[object], str]) -> None:
        """Copy an engine ``Span`` subtree under benchmark span ``parent``."""
        me = self.add(rename(engine_span), engine_span.start,
                      engine_span.end, parent)
        for child in engine_span.children:
            self.adopt(child, me, rename)

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, each span minus the part of its interval
        its children cover (children may overlap: shard tasks run in
        parallel, so the union is taken)."""
        children: Dict[int, List[dict]] = {}
        for record in self.spans:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(record)
        totals: Dict[str, float] = {}
        for record in self.spans:
            covered = _union_length(
                [(max(c["start"], record["start"]), min(c["end"], record["end"]))
                 for c in children.get(record["id"], ())])
            own = max(record["end"] - record["start"] - covered, 0.0)
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def coverage(self, root_name: str = "op") -> float:
        """Share of the root spans' time that falls in named layers."""
        total = sum(r["end"] - r["start"] for r in self.spans
                    if r["name"] == root_name)
        if total <= 0:
            return 0.0
        return 1.0 - self.self_times().get(root_name, 0.0) / total

    def write(self, workload: str, summary: dict) -> str:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}.json")
        t0 = min((r["start"] for r in self.spans), default=0.0)
        spans = [{**r, "start": r["start"] - t0, "end": r["end"] - t0}
                 for r in self.spans]
        with open(path, "w") as handle:
            json.dump({"workload": workload, "summary": summary,
                       "self_seconds": self.self_times(), "spans": spans},
                      handle)
        return path


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total
