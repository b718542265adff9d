"""``rel_analytic`` and ``rel_sharded``: the TPC-H-shaped suite, embedded.

One operation is one round of the five statements through
``session.sql.query(stmt).run()`` with every result column decoded. The two
workloads differ only in ``extra_config``: default (serial) against
``{"shards": 2}``. Results are checked every round against the numpy floor;
``rel_sharded`` also runs the suite serially once in the same process and
requires its own results to be bit-identical to that.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import datagen
import probes
import reference
from harness import OpLog, Tracer, closed_loop, median, run_segments, time_call

SHARDED_CONFIG = {"shards": 2}


class _State:
    def __init__(self, session, register_s: float):
        self.session = session
        self.register_s = register_s


def _build(lineitem, orders, statements, config) -> _State:
    from repro.core.session import Session
    session = Session()
    start = time.perf_counter()
    session.sql.register_dict(lineitem, "lineitem")
    session.sql.register_dict(orders, "orders")
    register_s = time.perf_counter() - start
    for statement in statements.values():       # compile, spawn shard helpers
        _run(session, statement, config)
    return _State(session, register_s)


def _run(session, statement: str, config) -> Dict[str, object]:
    result = session.sql.query(statement, extra_config=config).run()
    return reference.result_columns(result)


def _check_topk(got, want, floor: reference.NumpyFloor) -> Optional[str]:
    """``ORDER BY price DESC LIMIT k`` leaves rows of equal price unordered,
    and which of the rows tied at the k-th price are returned open."""
    import numpy as np
    if list(got) != list(want):
        return f"columns {list(got)}"
    if not np.array_equal(got["l_extendedprice"], want["l_extendedprice"]):
        return "prices differ"
    price = want["l_extendedprice"]
    inside = price > price[-1]
    problem = reference.compare_columns(
        {n: v[inside] for n, v in got.items()},
        {n: v[inside] for n, v in want.items()}, unordered_ties_on="l_extendedprice")
    if problem:
        return problem
    tied = floor.li["l_orderkey"][floor.li["l_extendedprice"] == price[-1]]
    if not np.isin(got["l_orderkey"][~inside], tied).all():
        return "order key at the k-th price is not one of the tied rows"
    return None


def _verify(name, got, want, floor) -> Optional[str]:
    if name == "topk":
        return _check_topk(got, want, floor)
    return reference.compare_columns(got, want)


def _mismatch(results, expected, floor) -> Optional[str]:
    for name, want in expected.items():
        problem = _verify(name, results[name], want, floor)
        if problem:
            return f"{name}: {problem}"
    return None


def run(workload: str, options) -> dict:
    config = SHARDED_CONFIG if workload == "rel_sharded" else None
    orders = datagen.make_orders(options.seed, options.scale)
    lineitem = datagen.make_lineitem(options.seed, orders, options.scale)
    params = datagen.suite_params(options.seed)
    statements = datagen.suite_statements(params)
    order = datagen.suite_order(options.seed)
    floor = reference.NumpyFloor(lineitem, orders)
    expected = floor.suite(params)
    if options.wrong_reference:
        expected["q6"]["revenue"] = expected["q6"]["revenue"] * 1.001
    log = OpLog()

    def bind(state: _State):
        """``(operation, check)`` over one set-up state."""
        session = state.session
        serial = None
        if config is not None:
            serial = {name: _run(session, statements[name], None) for name in order}

        def check(results) -> Optional[str]:
            problem = _mismatch(results, expected, floor)
            if problem is None and serial is not None:
                for name in order:
                    if not reference.bit_identical(results[name], serial[name]):
                        return f"{name}: sharded result is not bit-identical to serial"
            return problem

        def operation(_index: int):
            start = time.perf_counter()
            results = {name: _run(session, statements[name], config) for name in order}
            latency = time.perf_counter() - start
            return latency, check(results)

        return operation, check

    def build() -> _State:
        return _build(lineitem, orders, statements, config)

    if not options.trace:
        # A dropped session needs no teardown: its shard helpers are idle
        # daemon threads.
        setup_s, rss_mb = run_segments(
            build, lambda _state: None,
            lambda state, seconds: closed_loop(bind(state)[0], seconds, log),
            options.seconds)
        metrics = log.end_to_end(setup_s, rss_mb)
    else:
        state = build()
        operation, check = bind(state)
        metrics = _traced(workload, options, state, statements, order, config,
                          operation, check, log, floor, params, lineitem)
    return {"attempted": log.attempted, "failed": log.failed,
            "notes": log.notes, "metrics": metrics}


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def _engine_span_name(span) -> str:
    """Name an engine span by the layer that owns it.

    ``stitch`` and barrier spans sit under the operator span of the driver
    that opened them; the driver's text tells the two partition layers apart.
    """
    owner = span
    while owner is not None and owner.name != "operator":
        owner = owner.parent
    text = str(owner.attrs.get("op", "")) if owner is not None else ""
    exchange = text.startswith(("Exchange", "PartitionedJoin"))
    if span.name == "operator":
        if exchange:
            return "exchange"
        return "sharded" if text.startswith("Sharded") else "operators"
    if span.name in ("shard_barrier", "exchange_barrier"):
        return "exchange.barrier" if exchange else "sharded.barrier"
    if span.name in ("stitch", "merge"):
        return "exchange.stitch" if exchange else "sharded.stitch"
    return f"engine.{span.name}"


def _traced(workload, options, state, statements, order, config, operation,
            check, log, floor, params, lineitem) -> Dict[str, float]:
    session = state.session
    tracer = Tracer()
    sharded = config is not None
    traced_config = dict(config, telemetry=True) if sharded else None
    layer = "sharded" if sharded else "operators"
    per_statement = {name: [] for name in order}

    plain = OpLog()
    closed_loop(operation, options.seconds * 0.25, plain)
    if sharded:
        for statement in statements.values():     # compile the telemetry plans
            _run(session, statement, traced_config)
    counters_before = session.metrics.snapshot()
    cache_before = session.plan_cache.stats

    def traced_operation(index: int):
        results, engine_traces = {}, []
        with tracer.span("op", op=index) as op_span:
            for name in order:
                with tracer.span("session"):
                    query = session.sql.query(
                        statements[name], extra_config=traced_config)
                with tracer.span(layer) as run_span:
                    result = query.run()
                per_statement[name].append(run_span["end"] - run_span["start"])
                with tracer.span("storage"):
                    results[name] = reference.result_columns(result)
                if sharded:
                    engine_traces.append((run_span["id"], query.last_trace()))
        for parent, trace in engine_traces:     # the engine's own spans
            for child in trace.root.children:
                tracer.adopt(child, parent, _engine_span_name)
        return op_span["end"] - op_span["start"], check(results)

    closed_loop(traced_operation, options.seconds * 0.35, log)
    rounds = log.attempted
    metrics = dict(probes.plan_cache_counters(session, cache_before))
    counters = session.metrics.snapshot()
    metrics.update(probes.front_end(session, [statements[n] for n in order],
                                    tracer, extra_config=config, repeats=3))
    metrics["storage.register_rel_ms"] = state.register_s * 1e3
    metrics["trace.overhead_ratio"] = median(log.latencies) / median(plain.latencies)
    metrics["trace.coverage_ratio"] = tracer.coverage()
    metrics["op.p90_ms"] = plain.p90_ms()
    round_s = median(plain.latencies)

    for name in order:
        metrics[f"{layer}.{name}_ms"] = median(per_statement[name]) * 1e3
    if not sharded:
        metrics["operators.rows_per_s"] = (
            len(lineitem["l_orderkey"]) / median(per_statement["q6"]))
        metrics.update(_reference_metrics(
            floor, params, statements, lineitem, round_s,
            {name: median(per_statement[name]) for name in order}))
    else:
        serial_log = OpLog()
        closed_loop(
            lambda _i: _timed_round(session, statements, order), options.seconds * 0.15,
            serial_log)
        metrics["sharded.slowdown_x"] = round_s / median(serial_log.latencies)
        own = tracer.self_times()
        for name in ("sharded.barrier", "sharded.stitch",
                     "exchange.barrier", "exchange.stitch"):
            metrics[f"{name}_ms"] = own.get(name, 0.0) * 1e3 / rounds
        for name in ("exchange.rows_moved", "shard_pool.tasks"):
            moved = counters.get(name, 0) - counters_before.get(name, 0)
            metrics[name] = moved / rounds
    tracer.write(workload, {"rounds": rounds, "round_p50_ms": round_s * 1e3,
                            "coverage": metrics["trace.coverage_ratio"]})
    log.absorb(plain)
    return metrics


def _timed_round(session, statements, order):
    start = time.perf_counter()
    for name in order:
        _run(session, statements[name], None)
    return time.perf_counter() - start, None


def _reference_metrics(floor, params, statements, lineitem, round_s,
                       engine_s) -> Dict[str, float]:
    """The numpy floor and miniduck on the same statements, same data."""
    import numpy as np
    metrics = {}
    numpy_round = 0.0
    for name in datagen.SUITE:
        seconds = time_call(lambda: getattr(floor, name)(params), 5)
        metrics[f"ref.numpy_{name}_ms"] = seconds * 1e3
        numpy_round += seconds
    metrics["ref.numpy_round_ms"] = numpy_round * 1e3
    metrics["ref.floor_ratio"] = round_s / numpy_round
    metrics["ref.overhead_ms"] = (round_s - numpy_round) * 1e3

    duck = reference.miniduck_suite(lineitem)
    expected = floor.suite(params)
    duck_s = engine = 0.0
    for name in ("q1", "q6", "topk"):
        seconds = time_call(lambda: duck.execute(statements[name]), 2)
        metrics[f"ref.miniduck_{name}_ms"] = seconds * 1e3
        duck_s += seconds
        engine += engine_s[name]
        # The two references must agree with each other, or neither is one.
        got = reference.frame_columns(duck.execute(statements[name]))
        if name == "topk":      # miniduck keeps the float64 it was given
            got["l_extendedprice"] = got["l_extendedprice"].astype(np.float32)
        problem = _verify(name, got, expected[name], floor)
        if problem:
            raise AssertionError(f"miniduck and numpy disagree on {name}: {problem}")
    metrics["ref.miniduck_ratio"] = engine / duck_s
    return metrics
