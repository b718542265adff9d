"""Pipeline-stage benchmark: a multi-stage relational chain as one operator.

Runs nested filter/project subqueries feeding a grouped aggregate. Lowering
inlines every link of the chain onto the base scan's columns, so the whole
chain is ONE ``PipelineExec`` stage: selection stays a mask/index vector
end to end — one conjunction mask over the base, one gather of the rows
that survive *all* conjuncts — and the aggregate reads the stage's output.

The workload is shaped so that single gather matters: early links are
mildly selective while the final one is highly selective, so a
link-at-a-time execution would materialise three near-full-size
intermediate tables before the selective tail runs.

Checked (any machine, any scale):

* **Bit-identity**: the interpreter body (the plan lowered over tcr ops,
  through ``tests/tcr_lowering.py``) and the kernel body (numpy, what
  exact plans run) return byte-identical group keys, counts and sums.
* **Plan shape**: EXPLAIN shows exactly one ``Pipeline[...]`` stage under
  the aggregate.

Reported, not gated: the kernel leg's milliseconds (and the interpreter
leg's beside it). The ratio this bench used to gate had the deleted
per-operator path as its denominator.
"""

import os
import sys

import numpy as np

from repro.bench.harness import (
    bench_scale,
    print_table,
    record_metric,
    scaled,
    time_call,
)
from repro.core.session import Session

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from tcr_lowering import query_over_tcr  # noqa: E402

N_ROWS = scaled(400_000)

# Filter -> project chain (nested subqueries) -> grouped aggregate. The
# outermost WHERE is the selective tail; the inner stages keep most rows.
QUERY = ("SELECT s, COUNT(*) AS c, SUM(v) AS sm FROM "
         "(SELECT s, v, w, y FROM "
         " (SELECT s, v, w, y FROM "
         "  (SELECT s, v, x - b AS w, y FROM "
         "   (SELECT s, x, b, x + b AS v, y FROM t WHERE x > -48) q1 "
         "   WHERE b < 11) q2 "
         "  WHERE v % 97 != 0) q3 "
         " WHERE y < 2.5) q4 "
         "WHERE w > 35 GROUP BY s")

KERNELS = {"tensor_cache": False}


def _session() -> Session:
    rng = np.random.default_rng(7)
    vocab = np.asarray([f"g{i:02d}" for i in range(24)], dtype=object)
    session = Session()
    session.sql.register_dict({
        "x": rng.integers(-50, 50, size=N_ROWS),
        "b": rng.integers(0, 12, size=N_ROWS),
        "y": rng.normal(size=N_ROWS).astype(np.float32),
        "s": vocab[rng.integers(0, len(vocab), size=N_ROWS)],
    }, "t")
    return session


def _snapshot(result):
    return {name: np.asarray(result.column(name))
            for name in result.column_names}


def _assert_bitwise(a, b, context):
    assert list(a) == list(b), context
    for name in a:
        assert a[name].dtype == b[name].dtype, (context, name)
        assert np.array_equal(a[name], b[name],
                              equal_nan=a[name].dtype.kind == "f"), \
            (context, name)


class TestPipelineCompile:
    def test_kernel_leg_time_and_bit_identity(self, benchmark):
        session = _session()
        interp_q = query_over_tcr(session, QUERY, extra_config=KERNELS)
        kernel_q = session.sql.query(QUERY, extra_config=KERNELS)

        # Bit-identity of the two bodies first (also warms both code paths
        # before timing).
        base = _snapshot(interp_q.run())
        assert base["c"].sum() > 0, "selective tail filtered everything out"
        _assert_bitwise(base, _snapshot(kernel_q.run()), "kernels")

        t_interp = time_call(interp_q.run, repeat=5)
        t_kernel = time_call(kernel_q.run, repeat=5)
        print_table(
            f"pipeline stage: 5-link chain -> GROUP BY ({N_ROWS} rows, "
            f"scale {bench_scale():g})",
            ["body", "milliseconds"],
            [["interpreter", t_interp * 1e3], ["kernel", t_kernel * 1e3]],
        )
        record_metric(
            "pipeline_compile", rows=N_ROWS,
            interpreter_ms=round(t_interp * 1e3, 3),
            kernel_ms=round(t_kernel * 1e3, 3),
        )
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    def test_plan_shows_single_stage(self, benchmark):
        """The five-link chain is one Pipeline stage directly under the
        aggregate, directly over the scan."""
        session = _session()
        text = session.sql.query(QUERY, extra_config=KERNELS).explain()
        lines = text.split("== Physical operators ==")[1].strip().splitlines()
        # The outermost WHERE (w > 35) and the innermost (x > -48) sit in
        # the same stage, both written against the scan's columns.
        stages = [i for i, line in enumerate(lines)
                  if line.lstrip().startswith("Pipeline[kernel]")
                  and "((x - b) > 35)" in line and "(x > -48)" in line]
        assert len(stages) == 1, text
        at = stages[0]
        assert lines[at - 1].lstrip().startswith("GroupedAggregate"), text
        assert lines[at + 1].lstrip().startswith("Scan(t)"), text
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
