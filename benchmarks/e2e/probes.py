"""Per-layer probes shared by the SQL workloads (traced pass only).

Each probe times calls into one layer's public functions from outside and
records a span per call; no engine code is patched.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from harness import Tracer, median


def _span_us(tracer: Tracer, name: str, fn):
    with tracer.span(name) as record:
        out = fn()
    return out, (record["end"] - record["start"]) * 1e6


def front_end(session, statements: Sequence[str], tracer: Tracer,
              extra_config: Optional[Mapping[str, object]] = None,
              repeats: int = 5) -> Dict[str, float]:
    """Walk parse -> bind -> optimize -> lower by hand, one span per stage.

    This is ``Session._compile_uncached`` spelled out with the same public
    pieces, so each stage gets its own time; then ``Session.compile_query``
    is timed as a whole on a never-seen text (miss) and on a repeat (hit).
    Times are medians over statements and repeats, in microseconds.
    """
    from repro.core.compiler import Compiler
    from repro.core.config import QueryConfig
    from repro.sql.binder import Binder
    from repro.sql.optimizer import optimize
    from repro.sql.parser import parse

    config = QueryConfig(extra_config)
    stages = {"sql.parse": [], "sql.bind": [], "sql.optimize": [],
              "compiler.lower": []}
    miss, hit = [], []
    for repeat in range(repeats):
        for number, statement in enumerate(statements):
            with tracer.span("frontend", op=-1 - number):
                ast, us = _span_us(tracer, "sql.parse", lambda: parse(statement))
                stages["sql.parse"].append(us)
                plan, us = _span_us(
                    tracer, "sql.bind",
                    lambda: Binder(session.catalog, session.functions).bind(ast))
                stages["sql.bind"].append(us)
                opt_config = config.as_optimizer_config()
                if not config.trainable:
                    opt_config["indexes"] = session.indexes
                plan, us = _span_us(tracer, "sql.optimize",
                                    lambda: optimize(plan, opt_config))
                stages["sql.optimize"].append(us)
                compiler = Compiler(session.catalog, config, "cpu",
                                    indexes=session.indexes,
                                    tensor_cache=session.tensor_cache,
                                    shard_pool=session.shard_pool, session=session)
                _, us = _span_us(tracer, "compiler.lower",
                                 lambda: compiler.compile(plan, statement))
                stages["compiler.lower"].append(us)
            # Trailing blanks make a new plan-cache key and the same plan.
            fresh = statement + " " * (repeat + 1)
            _, us = _span_us(tracer, "session.compile_miss",
                             lambda: session.compile_query(fresh, extra_config=extra_config))
            miss.append(us)
            _, us = _span_us(tracer, "session.compile_hit",
                             lambda: session.compile_query(fresh, extra_config=extra_config))
            hit.append(us)
    return {
        "sql.parse_us": median(stages["sql.parse"]),
        "sql.bind_us": median(stages["sql.bind"]),
        "sql.optimize_us": median(stages["sql.optimize"]),
        "compiler.lower_us": median(stages["compiler.lower"]),
        "session.compile_miss_us": median(miss),
        "session.compile_hit_us": median(hit),
    }


def plan_cache_counters(session, before: Optional[dict] = None) -> Dict[str, float]:
    """Hit ratio and evictions of the plan cache since ``before``."""
    stats = session.plan_cache.stats
    before = before or {"hits": 0, "misses": 0, "evictions": 0}
    hits = stats["hits"] - before["hits"]
    lookups = hits + stats["misses"] - before["misses"]
    return {
        "session.plan_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "session.plan_cache_evictions": stats["evictions"] - before["evictions"],
    }
