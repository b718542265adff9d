"""Binder: name/type resolution, plan shapes, UDF placement rules."""

import pytest

from repro.errors import BindError
from repro.core.session import Session
from repro.sql import logical
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage import types as dt


@pytest.fixture
def bound_session():
    s = Session()
    s.sql.register_dict(
        {"a": [1, 2, 3], "b": [1.0, 2.0, 3.0], "s": ["x", "y", "z"]}, "t"
    )
    s.sql.register_dict({"a": [1, 2], "c": [10.0, 20.0]}, "u")

    @s.udf("float", name="score")
    def score(x):
        return x * 2.0

    @s.udf("P float, Q float", name="expand")
    def expand(x):
        return x, x

    return s


def bind(session, sql):
    return Binder(session.catalog, session.functions).bind(parse(sql))


class TestResolution:
    def test_unknown_table(self, bound_session):
        with pytest.raises(Exception):
            bind(bound_session, "SELECT 1 FROM missing")

    def test_unknown_column_lists_available(self, bound_session):
        with pytest.raises(BindError, match="available"):
            bind(bound_session, "SELECT nope FROM t")

    def test_case_insensitive_columns(self, bound_session):
        plan = bind(bound_session, "SELECT A FROM t")
        # Output label follows the query text; resolution is case-insensitive.
        assert plan.schema[0][0].lower() == "a"

    def test_qualified_and_alias_resolution(self, bound_session):
        plan = bind(bound_session, "SELECT tt.a FROM t tt")
        assert plan.schema[0][0] == "a"
        with pytest.raises(BindError):
            bind(bound_session, "SELECT zz.a FROM t tt")

    def test_ambiguous_column_in_join(self, bound_session):
        with pytest.raises(BindError, match="ambiguous"):
            bind(bound_session, "SELECT a FROM t JOIN u ON t.a = u.a")

    def test_type_inference(self, bound_session):
        plan = bind(bound_session, "SELECT a + 1, b / 2, a = 1, s FROM t")
        types = [t for _, t in plan.schema]
        assert types[0] == dt.INT
        assert types[1] == dt.FLOAT
        assert types[2] == dt.BOOL
        assert types[3] == dt.STRING

    def test_where_must_be_boolean(self, bound_session):
        with pytest.raises(BindError, match="bool"):
            bind(bound_session, "SELECT a FROM t WHERE a + 1")

    def test_string_arithmetic_rejected(self, bound_session):
        with pytest.raises(BindError):
            bind(bound_session, "SELECT s * 2 FROM t")


class TestAggregates:
    def test_group_by_schema(self, bound_session):
        plan = bind(bound_session,
                    "SELECT s, COUNT(*), AVG(b) FROM t GROUP BY s")
        assert [n for n, _ in plan.schema] == ["s", "COUNT(*)", "AVG(b)"]
        assert plan.schema[1][1] == dt.INT
        assert plan.schema[2][1] == dt.FLOAT

    def test_non_grouped_column_rejected(self, bound_session):
        with pytest.raises(BindError, match="GROUP BY"):
            bind(bound_session, "SELECT a, COUNT(*) FROM t GROUP BY s")

    def test_aggregate_in_where_rejected(self, bound_session):
        with pytest.raises(BindError):
            bind(bound_session, "SELECT a FROM t WHERE COUNT(*) > 1")

    def test_having_adds_hidden_aggregate(self, bound_session):
        plan = bind(bound_session,
                    "SELECT s FROM t GROUP BY s HAVING SUM(b) > 2")
        # The plan must contain an Aggregate with the hidden SUM slot.
        node = plan
        while not isinstance(node, logical.Aggregate):
            node = node.children()[0]
        assert any(spec.func == "SUM" for spec in node.aggregates)

    def test_identical_aggregates_share_one_slot(self, bound_session):
        plan = bind(bound_session,
                    "SELECT COUNT(*), COUNT(*) + 1 FROM t GROUP BY s")
        node = plan
        while not isinstance(node, logical.Aggregate):
            node = node.children()[0]
        assert len(node.aggregates) == 1

    def test_global_aggregate_no_groups(self, bound_session):
        plan = bind(bound_session, "SELECT COUNT(*), MIN(a) FROM t")
        node = plan
        while not isinstance(node, logical.Aggregate):
            node = node.children()[0]
        assert node.group_exprs == []

    def test_sum_type_follows_argument(self, bound_session):
        plan = bind(bound_session, "SELECT SUM(a), SUM(b) FROM t")
        assert plan.schema[0][1] == dt.INT
        assert plan.schema[1][1] == dt.FLOAT

    def test_order_by_alias_in_aggregate_query(self, bound_session):
        plan = bind(bound_session,
                    "SELECT s, COUNT(*) AS c FROM t GROUP BY s ORDER BY c DESC")
        assert isinstance(plan, logical.Sort)


class TestUdfBinding:
    def test_scalar_udf_type(self, bound_session):
        plan = bind(bound_session, "SELECT score(b) FROM t")
        assert plan.schema[0][1] == dt.FLOAT

    def test_unknown_function(self, bound_session):
        with pytest.raises(BindError, match="unknown function"):
            bind(bound_session, "SELECT nothing(b) FROM t")

    def test_tvf_as_scalar_rejected(self, bound_session):
        with pytest.raises(BindError, match="scalar"):
            bind(bound_session, "SELECT a, expand(b) FROM t")

    def test_tvf_in_from(self, bound_session):
        plan = bind(bound_session, "SELECT P, Q FROM expand(t)")
        assert [n for n, _ in plan.schema] == ["P", "Q"]

    def test_tvf_projection_form(self, bound_session):
        plan = bind(bound_session, "SELECT expand(b) FROM t")
        assert isinstance(plan, logical.TVFScan)

    def test_tvf_unknown_table_arg(self, bound_session):
        with pytest.raises(BindError):
            bind(bound_session, "SELECT P FROM expand(missing_table)")

    def test_builtin_functions(self, bound_session):
        plan = bind(bound_session,
                    "SELECT ABS(a), SQRT(b), UPPER(s), LENGTH(s) FROM t")
        types = [t for _, t in plan.schema]
        assert types == [dt.INT, dt.FLOAT, dt.STRING, dt.INT]

    def test_builtin_arity_check(self, bound_session):
        with pytest.raises(BindError):
            bind(bound_session, "SELECT SQRT(a, b) FROM t")


class TestJoins:
    def test_equi_join_keys_extracted(self, bound_session):
        plan = bind(bound_session,
                    "SELECT t.s FROM t JOIN u ON t.a = u.a")
        node = plan
        while not isinstance(node, logical.JoinPlan):
            node = node.children()[0]
        assert len(node.left_keys) == 1
        assert node.residual is None

    def test_reversed_equi_condition(self, bound_session):
        plan = bind(bound_session, "SELECT t.s FROM t JOIN u ON u.a = t.a")
        node = plan
        while not isinstance(node, logical.JoinPlan):
            node = node.children()[0]
        assert len(node.left_keys) == 1

    def test_residual_condition_kept(self, bound_session):
        plan = bind(bound_session,
                    "SELECT t.s FROM t JOIN u ON t.a = u.a AND t.b < u.c")
        node = plan
        while not isinstance(node, logical.JoinPlan):
            node = node.children()[0]
        assert node.residual is not None

    def test_join_without_on_rejected(self, bound_session):
        with pytest.raises(Exception):
            bind(bound_session, "SELECT t.s FROM t JOIN u")


class TestStatementPlans:
    @pytest.mark.parametrize("sql, want", [
        ("EXPLAIN SELECT a FROM t", "Explain()"),
        ("EXPLAIN ANALYZE SELECT a FROM t", "Explain(ANALYZE)"),
        ("SHOW INDEXES", "ShowIndexes"),
    ])
    def test_describe_names_the_statement(self, bound_session, sql, want):
        plan = bind(bound_session, sql)
        assert plan.describe() == want
        assert plan.pretty().splitlines()[0] == want
