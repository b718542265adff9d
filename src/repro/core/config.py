"""Compilation flags and constants (paper Listing 6 uses ``tdp.constants``)."""

from __future__ import annotations

from typing import Mapping, Optional


class constants:
    """Namespace of extra_config keys, mirroring ``tdp.constants`` in the paper."""

    TRAINABLE = "trainable"
    # Optimizer control.
    DISABLE_RULES = "disable_rules"        # iterable of {fold, pushdown, prune, vector_index}
    # Execution-speed subsystem.
    PLAN_CACHE = "plan_cache"              # reuse compiled plans across calls
    TENSOR_CACHE = "tensor_cache"          # reuse UDF/embedding materializations
    # Vector-index subsystem.
    NPROBE = "nprobe"                      # per-query IVF probe-width hint
    # Intra-query parallelism (sharded join inputs).
    SHARDS = "shards"                      # shard count (1 = serial, 0 = auto)
    # Expression codegen (TQP-style kernel compilation).
    COMPILE_EXPRS = "compile_exprs"        # exact plans' expression namespace: numpy (True) or tcr ops
    # Observability.
    TELEMETRY = "telemetry"                # trace every run (EXPLAIN ANALYZE forces it)
    SLOW_QUERY_SECONDS = "slow_query_seconds"  # slow-log threshold (None = session default)


_DEFAULTS = {
    constants.TRAINABLE: False,
    constants.DISABLE_RULES: (),
    constants.PLAN_CACHE: True,
    constants.TENSOR_CACHE: True,
    constants.NPROBE: None,
    constants.SHARDS: 1,
    constants.COMPILE_EXPRS: True,
    constants.TELEMETRY: False,
    constants.SLOW_QUERY_SECONDS: None,
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
    def disable_rules(self):
        return tuple(self._values[constants.DISABLE_RULES])

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
