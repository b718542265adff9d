"""Slow-query log: a threshold-gated ring buffer of statement summaries.

Every traced-or-not query run reports its end-to-end wall time here; only
runs at or above the threshold are retained, so the steady-state cost is a
float compare. Entries keep the statement text, latency, and — when the run
was traced — a compact trace summary (top operators by self-evident wall
time plus trace-wide cache counters), enough to triage without re-running.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import List, Optional

DEFAULT_THRESHOLD_SECONDS = 1.0
DEFAULT_CAPACITY = 128


class SlowQueryLog:
    """Fixed-capacity, thread-safe ring buffer of slow-statement records."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 threshold_seconds: float = DEFAULT_THRESHOLD_SECONDS):
        self.capacity = max(int(capacity), 1)
        self.threshold_seconds = float(threshold_seconds)
        self._entries = collections.deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._observed = 0
        self._logged = 0
        self._evicted = 0       # entries the full ring dropped (not clear())

    def observe(self, statement: str, seconds: float, trace=None,
                threshold: Optional[float] = None) -> bool:
        """Record a finished run; returns True when it was slow enough to log.

        ``threshold`` overrides the log's default for this one observation
        (the per-query ``slow_query_seconds`` config knob).
        """
        cutoff = self.threshold_seconds if threshold is None else threshold
        with self._lock:
            self._observed += 1
            if seconds < cutoff:
                return False
            entry = {
                "statement": statement,
                "seconds": seconds,
                "logged_at": time.time(),
            }
            if trace is not None:
                entry["trace_summary"] = self._summarize(trace)
            if len(self._entries) == self.capacity:
                self._evicted += 1
            self._entries.append(entry)
            self._logged += 1
            return True

    @staticmethod
    def _summarize(trace) -> dict:
        operators = []
        for span_ in trace.root.walk():
            if span_.name != "operator":
                continue
            operators.append({
                "op": span_.attrs.get("op", ""),
                "seconds": span_.seconds,
                "rows_out": span_.attrs.get("rows_out"),
            })
        operators.sort(key=lambda item: item["seconds"], reverse=True)
        return {
            "seconds": trace.seconds,
            "top_operators": operators[:5],
            "counts": trace.total_counts(),
        }

    def entries(self) -> List[dict]:
        """Snapshot of retained entries, oldest first."""
        with self._lock:
            return [dict(entry) for entry in self._entries]

    def stats(self) -> dict:
        with self._lock:
            return {
                "observed": self._observed,
                "logged": self._logged,
                "retained": len(self._entries),
                "evicted": self._evicted,
                "threshold_seconds": self.threshold_seconds,
                "capacity": self.capacity,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def last(self) -> Optional[dict]:
        with self._lock:
            return dict(self._entries[-1]) if self._entries else None
