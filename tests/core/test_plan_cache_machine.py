"""A cached plan answers as a fresh compile does, whatever happened since.

A hypothesis ``RuleBasedStateMachine`` drives one :class:`Session` through
table writes that keep or change a schema, drops, UDF re-registration,
vector-index DDL, in-place writes to a UDF model's weights, and statements
with random literals. After every statement it runs the same text again
with ``{"plan_cache": False}`` and requires the same result (or the same
error class); one statement is also run with the tensor cache off, so a
weight write the cache missed shows. The plan cache keys on the catalog's schema version, so this
is the check that a plan kept across a same-schema write reads the new
rows and that every change a plan depends on recompiles it.

After every step, one fixed text per statement shape is checked the same
way, so the plans cached by earlier steps run after each change.

Size: ``REPRO_PLAN_MACHINE_EXAMPLES`` (default 6) programs of up to 25
steps each; the nightly workflow runs 200.
"""

import os

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.session import Session
from repro.tcr import nn, ops
from repro.tcr.tensor import Tensor

EXAMPLES = int(os.environ.get("REPRO_PLAN_MACHINE_EXAMPLES", "6"))
DIM = 4
TEXTS = ("alpha", "beta", "gamma")
FRESH = {"plan_cache": False}
UNCACHED = {"plan_cache": False, "tensor_cache": False}

# Each variant changes one thing a plan may depend on.
VARIANTS = ("base", "v_int", "wide", "no_s", "s_int", "cuda")

STATEMENTS = (
    "SELECT k, SUM(v) AS total FROM t WHERE v > {x} GROUP BY k ORDER BY k",
    "SELECT COUNT(*) FROM t WHERE k < {i}",
    "SELECT id, lin(v) AS y FROM t WHERE k = {i} ORDER BY id",
    "SELECT s, COUNT(*) AS n FROM t WHERE s >= '{w}' GROUP BY s ORDER BY s",
    "SELECT * FROM t WHERE id < {i} ORDER BY id",
    "SELECT id, vsim('{q}', emb) AS score FROM t ORDER BY score DESC, id LIMIT {i}",
    "SELECT id FROM t WHERE vsim('{q}', emb) > {x} ORDER BY id",
    "SELECT COUNT(*) FROM u WHERE a > {i}",
)


class TwoTower(nn.Module):
    """A scaled identity image tower and a lookup text tower."""

    def __init__(self):
        super().__init__()
        self.scale = nn.Parameter(np.ones(DIM, dtype=np.float32), requires_grad=False)
        rng = np.random.default_rng(5)
        self.vocab = {t: rng.normal(size=DIM).astype(np.float32) for t in TEXTS}

    def encode_image(self, images: Tensor) -> Tensor:
        return images * self.scale

    def encode_text(self, texts) -> Tensor:
        return Tensor(np.stack([self.vocab[t] for t in texts]))


def _table(variant: str, rows: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    data = {
        "id": np.arange(rows, dtype=np.int64),
        "k": rng.integers(0, 4, rows).astype(np.int64),
        "v": rng.normal(size=rows).astype(np.float32),
        "s": rng.choice(np.array(["ant", "bee", "cat", "dog"]), rows),
        "emb": rng.normal(size=(rows, DIM)).astype(np.float32),
    }
    if variant == "v_int":
        data["v"] = rng.integers(-3, 4, rows).astype(np.int64)
    elif variant == "wide":
        data["w"] = rng.normal(size=rows).astype(np.float32)
    elif variant == "no_s":
        del data["s"]
    elif variant == "s_int":
        data["s"] = rng.integers(0, 5, rows).astype(np.int64)
    return data


def _outcome(query_fn):
    try:
        result = query_fn().run()
    except Exception as exc:       # noqa: BLE001 - compared across both runs
        return ("error", type(exc).__name__)
    names = list(result.column_names)
    return ("ok", names, [np.asarray(result.column(n)) for n in names])


def _assert_same(cached, fresh, statement):
    assert cached[0] == fresh[0], (statement, cached, fresh)
    if cached[0] == "error":
        assert cached == fresh, statement
        return
    assert cached[1] == fresh[1], statement
    for a, b in zip(cached[2], fresh[2]):
        assert a.dtype == b.dtype, statement
        np.testing.assert_array_equal(a, b, err_msg=statement)


class PlanCacheMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.session = Session()
        self.variant = "base"
        self.lin_model = nn.Linear(1, 1)
        self.tower = TwoTower()
        self.bodies = 0
        self.has_t = True
        self.session.sql.register_dict(_table("base", 12, 0), "t")
        self.session.sql.register_dict(
            {"a": np.arange(6, dtype=np.int64)}, "u")
        self._register_udfs()

    def _register_udfs(self):
        session, model, tower = self.session, self.lin_model, self.tower
        offset = float(self.bodies)

        @session.udf("float", name="lin", modules=[model])
        def lin(v):
            return model(ops.reshape(v * 1.0, (-1, 1))).reshape(-1) + offset

        @session.udf("float", name="vsim", modules=[tower], ann="inner_product")
        def vsim(query: str, emb: Tensor) -> Tensor:
            img = tower.encode_image(emb)
            txt = tower.encode_text([query])
            return ops.matmul(img, ops.reshape(txt, (-1, 1))).reshape(-1)

    @rule(rows=st.integers(1, 16), seed=st.integers(0, 3))
    def write_same_schema(self, rows, seed):
        self.session.sql.register_dict(_table(self.variant, rows, seed), "t",
                                       device="cuda" if self.variant == "cuda" else None)
        self.has_t = True

    @rule(variant=st.sampled_from(VARIANTS), rows=st.integers(1, 16),
          seed=st.integers(0, 3))
    def write_changed_schema(self, variant, rows, seed):
        self.variant = variant
        self.write_same_schema(rows, seed)

    @rule()
    def drop_table(self):
        if self.has_t:
            self.session.sql.drop("t")
            self.has_t = False

    @rule()
    def reregister_udfs(self):
        self.bodies += 1
        self._register_udfs()

    @rule(cells=st.integers(1, 4))
    def create_index(self, cells):
        if self.has_t and "vidx" not in self.session.indexes:
            self.session.sql.query(
                f"CREATE VECTOR INDEX vidx ON t(emb) WITH (cells={cells}, nprobe={cells})"
            ).run()

    @rule()
    def drop_index(self):
        self.session.drop_index("vidx", if_exists=True)

    @rule(value=st.floats(-2.0, 2.0, allow_nan=False, width=32),
          which=st.sampled_from(("lin", "tower")))
    def write_weights_in_place(self, value, which):
        if which == "lin":
            self.lin_model.weight.data[...] = value
        else:
            self.tower.scale.data[1] = value

    def _check(self, statement, fresh_first=False):
        session = self.session
        cached_fn = lambda: session.sql.query(statement)                   # noqa: E731
        fresh_fn = lambda: session.sql.query(statement, extra_config=FRESH)  # noqa: E731
        if fresh_first:
            fresh = _outcome(fresh_fn)
            cached = _outcome(cached_fn)
        else:
            cached = _outcome(cached_fn)
            fresh = _outcome(fresh_fn)
        _assert_same(cached, fresh, statement)

    @rule(template=st.sampled_from(STATEMENTS), i=st.integers(0, 5),
          x=st.sampled_from((-0.5, 0.0, 0.25, 1.0)),
          w=st.sampled_from(("a", "bee", "c")), q=st.sampled_from(TEXTS),
          fresh_first=st.booleans())
    def run_statement(self, template, i, x, w, q, fresh_first):
        self._check(template.format(i=i, x=x, w=w, q=q), fresh_first)

    @invariant()
    def cached_plans_match_fresh_compiles(self):
        # The same texts after every step: each one's plan was cached by an
        # earlier step, so this is where a plan kept across a change runs.
        for template in STATEMENTS:
            self._check(template.format(i=2, x=0.0, w="bee", q="alpha"))
        # lin's outputs are one product and a sum per row, bitwise the same
        # however many rows a call sees: a run that caches nothing must
        # agree with one the tensor cache served after a weight write.
        statement = STATEMENTS[2].format(i=2)
        _assert_same(_outcome(lambda: self.session.sql.query(statement)),
                     _outcome(lambda: self.session.sql.query(statement, extra_config=UNCACHED)),
                     statement)
        cache = self.session.plan_cache
        assert len(cache) <= cache.maxsize


PlanCacheMachine.TestCase.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
TestPlanCacheMachine = PlanCacheMachine.TestCase
