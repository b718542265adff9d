"""Compilation flags and constants (paper Listing 6 uses ``tdp.constants``)."""

from __future__ import annotations

from typing import Mapping, Optional


class constants:
    """Namespace of extra_config keys, mirroring ``tdp.constants`` in the paper."""

    TRAINABLE = "trainable"
    # Operator implementation choices ("auto" lets heuristics decide).
    GROUPBY_IMPL = "groupby_impl"          # auto (exact unless trainable) | soft
    # Optimizer control.
    DISABLE_RULES = "disable_rules"        # iterable of {fold, pushdown, prune, vector_index}
    # Soft-operator hyperparameters.
    SOFT_FILTER = "soft_filter"            # relax WHERE into row weights
    SOFT_TEMPERATURE = "soft_temperature"  # sigmoid sharpness for soft filters
    # Execution-speed subsystem.
    PLAN_CACHE = "plan_cache"              # reuse compiled plans across calls
    TENSOR_CACHE = "tensor_cache"          # reuse UDF/embedding materializations
    # Vector-index subsystem.
    NPROBE = "nprobe"                      # per-query IVF probe-width hint
    # Intra-query parallelism (sharded scans).
    SHARDS = "shards"                      # shard count (1 = serial, 0 = auto)
    PARALLEL_MIN_ROWS = "parallel_min_rows"  # don't shard smaller inputs
    # Expression codegen (TQP-style kernel compilation).
    COMPILE_EXPRS = "compile_exprs"        # exact plans' expression namespace: numpy (True) or tcr ops
    # Observability.
    TELEMETRY = "telemetry"                # trace every run (EXPLAIN ANALYZE forces it)
    SLOW_QUERY_SECONDS = "slow_query_seconds"  # slow-log threshold (None = session default)
    # Serving / admission control (the scheduler front door).
    SCHEDULER_WORKERS = "scheduler_workers"  # worker-pool size (None = scheduler default)
    MAX_QUEUE_DEPTH = "max_queue_depth"    # queued-request cap (None = unbounded)
    PRIORITY = "priority"                  # dequeue priority class (higher runs sooner)
    DEADLINE = "deadline"                  # per-request SLO budget in seconds (None = no SLO)


_DEFAULTS = {
    constants.TRAINABLE: False,
    constants.GROUPBY_IMPL: "auto",
    constants.DISABLE_RULES: (),
    constants.SOFT_FILTER: False,
    constants.SOFT_TEMPERATURE: 25.0,
    constants.PLAN_CACHE: True,
    constants.TENSOR_CACHE: True,
    constants.NPROBE: None,
    constants.SHARDS: 1,
    constants.PARALLEL_MIN_ROWS: 64,
    constants.COMPILE_EXPRS: True,
    constants.TELEMETRY: False,
    constants.SLOW_QUERY_SECONDS: None,
    constants.SCHEDULER_WORKERS: None,
    constants.MAX_QUEUE_DEPTH: None,
    constants.PRIORITY: 0,
    constants.DEADLINE: None,
}


class QueryConfig:
    """Validated view over the user's ``extra_config`` dict."""

    def __init__(self, extra_config: Optional[Mapping[str, object]] = None):
        merged = dict(_DEFAULTS)
        if extra_config:
            for key, value in extra_config.items():
                if key not in _DEFAULTS:
                    raise ValueError(
                        f"unknown config key {key!r}; valid keys: {sorted(_DEFAULTS)}"
                    )
                merged[key] = value
        self._values = merged

    def __getitem__(self, key: str):
        return self._values[key]

    @property
    def trainable(self) -> bool:
        return bool(self._values[constants.TRAINABLE])

    @property
    def groupby_impl(self) -> str:
        return str(self._values[constants.GROUPBY_IMPL])

    @property
    def disable_rules(self):
        return tuple(self._values[constants.DISABLE_RULES])

    @property
    def soft_filter(self) -> bool:
        return bool(self._values[constants.SOFT_FILTER])

    @property
    def soft_temperature(self) -> float:
        return float(self._values[constants.SOFT_TEMPERATURE])

    @property
    def plan_cache(self) -> bool:
        return bool(self._values[constants.PLAN_CACHE])

    @property
    def tensor_cache(self) -> bool:
        return bool(self._values[constants.TENSOR_CACHE])

    @property
    def nprobe(self) -> Optional[int]:
        value = self._values[constants.NPROBE]
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"nprobe must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"nprobe must be >= 1, got {value}")
        return value

    @property
    def shards(self) -> int:
        """Shard count for intra-query parallelism: 1 = serial execution,
        0 = one shard per available core, N = exactly N shards."""
        value = self._values[constants.SHARDS]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"shards must be an integer, got {value!r}")
        if value < 0 or value > 256:
            raise ValueError(f"shards must be in [0, 256], got {value}")
        return value

    @property
    def parallel_min_rows(self) -> int:
        value = self._values[constants.PARALLEL_MIN_ROWS]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"parallel_min_rows must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"parallel_min_rows must be >= 0, got {value}")
        return value

    @property
    def compile_exprs(self) -> bool:
        return bool(self._values[constants.COMPILE_EXPRS])

    @property
    def telemetry(self) -> bool:
        return bool(self._values[constants.TELEMETRY])

    @property
    def slow_query_seconds(self) -> Optional[float]:
        value = self._values[constants.SLOW_QUERY_SECONDS]
        if value is None:
            return None
        threshold = float(value)
        if threshold < 0:
            raise ValueError(f"slow_query_seconds must be >= 0, got {value!r}")
        return threshold

    # ------------------------------------------------------------------
    # Serving / admission control
    # ------------------------------------------------------------------
    @property
    def scheduler_workers(self) -> Optional[int]:
        value = self._values[constants.SCHEDULER_WORKERS]
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"scheduler_workers must be an integer, got {value!r}")
        if value < 1 or value > 64:
            raise ValueError(f"scheduler_workers must be in [1, 64], got {value}")
        return value

    @property
    def max_queue_depth(self) -> Optional[int]:
        value = self._values[constants.MAX_QUEUE_DEPTH]
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"max_queue_depth must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {value}")
        return value

    @property
    def priority(self) -> int:
        value = self._values[constants.PRIORITY]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"priority must be an integer, got {value!r}")
        if value < -100 or value > 100:
            raise ValueError(f"priority must be in [-100, 100], got {value}")
        return value

    @property
    def deadline(self) -> Optional[float]:
        value = self._values[constants.DEADLINE]
        if value is None:
            return None
        deadline = float(value)
        if deadline <= 0:
            raise ValueError(f"deadline must be > 0 seconds, got {value!r}")
        return deadline

    def as_mapping(self) -> dict:
        """The effective flag values as a plain ``extra_config``-shaped dict.

        EXPLAIN ANALYZE re-compiles its inner statement under the outer
        statement's exact configuration; this round-trips it.
        """
        return dict(self._values)

    def fingerprint(self) -> tuple:
        """Hashable digest of every flag, for plan-cache keys."""
        return tuple(sorted((k, repr(v)) for k, v in self._values.items()))

    def as_optimizer_config(self) -> dict:
        return {"disable_rules": self.disable_rules}
