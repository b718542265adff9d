"""Thread-safe counters and mergeable fixed-bucket histograms,
unified behind one namespaced :class:`MetricsRegistry`.

The registry serves two constituencies:

* **Existing component stats** — ``PlanCache``/``TensorCache``/
  ``ShardPool``/``IndexManager`` keep their own (already locked) counters;
  the registry *collects* them through registered providers, so one
  ``Session.metrics.snapshot()`` shows every subsystem under a stable
  namespace (``plan_cache.hits``, ``tensor_cache.evictions``, ...).

* **Registry-owned instruments** — per-query latency and queue-wait
  histograms, scheduler lifetime totals. These survive the objects
  that produce them (``Session.serve`` creates a fresh scheduler per call;
  its counts land here and keep accumulating), which is what the ROADMAP's
  SLO-aware admission control needs to read.

Histograms use *fixed* bucket boundaries so two histograms with the same
boundaries merge by adding counts — the property that lets per-worker or
per-shard observations combine without quantile sketches. Quantiles are
estimated by linear interpolation inside the owning bucket; with the
default log-spaced latency boundaries the estimate is within one bucket's
resolution, which is what an admission controller needs (not exact order
statistics).
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Dict, List, Optional, Sequence


def _default_latency_bounds() -> List[float]:
    # Log-spaced from 10us to ~100s: four points per decade keeps relative
    # quantile error under ~50% per bucket while the list stays bisect-fast.
    bounds = []
    value = 1e-5
    while value < 100.0:
        for step in (1.0, 1.8, 3.2, 5.6):
            bounds.append(round(value * step, 10))
        value *= 10.0
    return bounds


DEFAULT_LATENCY_BOUNDS = tuple(_default_latency_bounds())


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, delta: int = 1) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram; same-boundary histograms merge exactly.

    ``bounds[i]`` is the inclusive upper edge of bucket ``i``; one overflow
    bucket catches everything above the last bound. ``observe`` is a bisect
    plus two adds under the lock, cheap enough for per-query recording.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min",
                 "_max", "_lock")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        self.bounds: List[float] = sorted(bounds if bounds is not None
                                          else DEFAULT_LATENCY_BOUNDS)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram (exact)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.name!r} vs {other.name!r})"
            )
        with other._lock:
            counts = list(other._counts)
            count, total = other._count, other._sum
            mn, mx = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._count += count
            self._sum += total
            self._min = min(self._min, mn)
            self._max = max(self._max, mx)

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) by intra-bucket interpolation."""
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        q = min(max(q, 0.0), 1.0)
        rank = q * self._count
        seen = 0
        for i, c in enumerate(self._counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self._max
                lo = max(lo, self._min if self._min != float("inf") else lo)
                hi = min(hi, self._max if self._max != float("-inf") else hi)
                if hi <= lo:
                    return hi
                frac = (rank - seen) / c
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            seen += c
        return self._max if self._max != float("-inf") else 0.0

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def snapshot(self) -> dict:
        """Summary dict (seconds for latency histograms; see OBSERVABILITY.md)."""
        with self._lock:
            if self._count == 0:
                return {"count": 0, "sum": 0.0}
            return {
                "count": self._count,
                "sum": self._sum,
                "mean": self._sum / self._count,
                "min": self._min,
                "max": self._max,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }


class MetricsRegistry:
    """Namespaced metric store + collector of component ``stats()`` dicts.

    ``counter``/``histogram`` get-or-create instruments by name
    (dotted namespaces by convention: ``scheduler.executed``).
    ``register_provider(ns, fn)`` attaches a zero-arg callable returning a
    flat dict; ``snapshot()`` flattens everything into one
    ``{"ns.key": value}`` mapping, with histogram summaries nested under
    their metric name.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._providers: Dict[str, Callable[[], dict]] = {}

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, bounds)
            return instrument

    # ------------------------------------------------------------------
    # Providers (existing component stats)
    # ------------------------------------------------------------------
    def register_provider(self, namespace: str, fn: Callable[[], dict]) -> None:
        with self._lock:
            self._providers[namespace] = fn

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
            providers = list(self._providers.items())
        out: Dict[str, object] = {}
        for namespace, fn in providers:
            try:
                stats = fn() or {}
            except Exception:   # a dead provider must not break the snapshot
                continue
            for key, value in stats.items():
                out[f"{namespace}.{key}"] = value
        for counter in counters:
            out[counter.name] = counter.value
        for histogram in histograms:
            out[histogram.name] = histogram.snapshot()
        return out
