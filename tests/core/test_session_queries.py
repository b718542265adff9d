"""End-to-end SQL behaviour through the session API."""

import numpy as np
import pytest

from repro.core.session import Session
from repro.errors import ExecutionError


@pytest.fixture
def s():
    session = Session()
    session.sql.register_dict({
        "id": [1, 2, 3, 4, 5, 6],
        "dept": ["eng", "eng", "sales", "sales", "hr", "eng"],
        "salary": [100.0, 120.0, 80.0, 85.0, 60.0, 110.0],
        "senior": [True, True, False, True, False, False],
    }, "emp")
    session.sql.register_dict({
        "dept": ["eng", "sales", "legal"],
        "budget": [1000.0, 500.0, 200.0],
    }, "dept")
    return session


def run(session, sql, **kw):
    return session.spark.query(sql, **kw).run(toPandas=True)


class TestProjectionFilter:
    def test_select_star(self, s):
        out = run(s, "SELECT * FROM emp")
        assert out.columns == ["id", "dept", "salary", "senior"]
        assert len(out) == 6

    def test_arithmetic_and_alias(self, s):
        out = run(s, "SELECT id, salary * 1.1 AS raised FROM emp LIMIT 2")
        np.testing.assert_allclose(out["raised"], [110.0, 132.0], rtol=1e-5)

    def test_numeric_filters(self, s):
        out = run(s, "SELECT id FROM emp WHERE salary >= 100 AND id != 1")
        assert out["id"].tolist() == [2, 6]

    def test_string_equality_and_ranges(self, s):
        assert len(run(s, "SELECT id FROM emp WHERE dept = 'eng'")) == 3
        # 'hr' and 'sales' both sort after 'eng'.
        assert len(run(s, "SELECT id FROM emp WHERE dept > 'eng'")) == 3
        assert len(run(s, "SELECT id FROM emp WHERE dept != 'hr'")) == 5

    def test_boolean_column_filter(self, s):
        out = run(s, "SELECT id FROM emp WHERE senior")
        assert out["id"].tolist() == [1, 2, 4]

    def test_in_between_like(self, s):
        assert len(run(s, "SELECT id FROM emp WHERE dept IN ('hr', 'sales')")) == 3
        assert len(run(s, "SELECT id FROM emp WHERE salary BETWEEN 80 AND 100")) == 3
        assert len(run(s, "SELECT id FROM emp WHERE dept LIKE 'e%'")) == 3
        assert len(run(s, "SELECT id FROM emp WHERE dept LIKE '%al%'")) == 2

    def test_not_and_or(self, s):
        out = run(s, "SELECT id FROM emp WHERE NOT senior AND "
                     "(dept = 'hr' OR salary > 100)")
        assert out["id"].tolist() == [5, 6]

    def test_case_expression(self, s):
        out = run(s, "SELECT id, CASE WHEN salary >= 100 THEN 1 ELSE 0 END "
                     "AS high FROM emp ORDER BY id")
        assert out["high"].tolist() == [1, 1, 0, 0, 0, 1]

    def test_cast(self, s):
        out = run(s, "SELECT CAST(salary AS int) AS s_int FROM emp LIMIT 1")
        assert out["s_int"].tolist() == [100]

    def test_builtins(self, s):
        out = run(s, "SELECT ABS(-salary) AS a, UPPER(dept) AS u FROM emp LIMIT 1")
        assert out["a"].tolist() == [100.0]
        assert out["u"].tolist() == ["ENG"]


class TestOrderLimitDistinct:
    def test_order_by_multiple_keys(self, s):
        out = run(s, "SELECT dept, salary FROM emp ORDER BY dept, salary DESC")
        assert out["dept"].tolist()[:3] == ["eng", "eng", "eng"]
        assert out["salary"].tolist()[:3] == [120.0, 110.0, 100.0]

    def test_order_by_expression_not_in_output(self, s):
        out = run(s, "SELECT id FROM emp ORDER BY salary DESC")
        assert out.columns == ["id"]
        assert out["id"].tolist() == [2, 6, 1, 4, 3, 5]

    def test_order_by_string_column(self, s):
        out = run(s, "SELECT DISTINCT dept FROM emp ORDER BY dept")
        assert out["dept"].tolist() == ["eng", "hr", "sales"]

    def test_limit_offset(self, s):
        out = run(s, "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 3")
        assert out["id"].tolist() == [4, 5]

    def test_topk_matches_sort_limit(self, s):
        fused = run(s, "SELECT id, salary FROM emp ORDER BY salary DESC LIMIT 3")
        full = run(s, "SELECT id, salary FROM emp ORDER BY salary DESC")
        assert fused.equals(full.head(3))

    def test_distinct_rows(self, s):
        out = run(s, "SELECT DISTINCT senior FROM emp")
        assert len(out) == 2


class TestAggregates:
    def test_global_aggregates(self, s):
        out = run(s, "SELECT COUNT(*), SUM(salary), AVG(salary), "
                     "MIN(salary), MAX(salary) FROM emp")
        assert out["COUNT(*)"].tolist() == [6]
        assert out["SUM(salary)"][0] == pytest.approx(555.0)
        assert out["AVG(salary)"][0] == pytest.approx(92.5)
        assert out["MIN(salary)"][0] == 60.0
        assert out["MAX(salary)"][0] == 110.0 + 10.0

    def test_group_by_string_key(self, s):
        out = run(s, "SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept "
                     "ORDER BY dept")
        assert out["dept"].tolist() == ["eng", "hr", "sales"]
        assert out["COUNT(*)"].tolist() == [3, 1, 2]

    def test_group_by_sum_matches_numpy(self, s):
        # Without ORDER BY: groups come out in key (dictionary-code) order.
        out = run(s, "SELECT dept, SUM(salary) FROM emp GROUP BY dept")
        dept = np.asarray(["eng", "eng", "sales", "sales", "hr", "eng"])
        salary = np.asarray([100.0, 120.0, 80.0, 85.0, 60.0, 110.0])
        keys, inverse = np.unique(dept, return_inverse=True)
        want = np.bincount(inverse, weights=salary).astype(np.float32)
        assert out["dept"].tolist() == keys.tolist()
        assert out["SUM(salary)"].tolist() == want.tolist()

    def test_having(self, s):
        out = run(s, "SELECT dept, COUNT(*) AS c FROM emp GROUP BY dept "
                     "HAVING COUNT(*) > 1 ORDER BY dept")
        assert out["dept"].tolist() == ["eng", "sales"]

    def test_count_distinct(self, s):
        out = run(s, "SELECT COUNT(DISTINCT dept) FROM emp")
        assert out["COUNT(DISTINCT dept)"].tolist() == [3]

    def test_grouped_count_distinct(self, s):
        out = run(s, "SELECT senior, COUNT(DISTINCT dept) AS d FROM emp "
                     "GROUP BY senior ORDER BY senior")
        assert out["d"].tolist() == [3, 2]

    def test_post_aggregate_arithmetic(self, s):
        out = run(s, "SELECT dept, SUM(salary) / COUNT(*) AS per_head FROM emp "
                     "GROUP BY dept ORDER BY dept")
        np.testing.assert_allclose(out["per_head"], [110.0, 60.0, 82.5])

    def test_multi_key_group(self, s):
        out = run(s, "SELECT dept, senior, COUNT(*) FROM emp "
                     "GROUP BY dept, senior ORDER BY dept, senior")
        assert len(out) == 5


class TestJoins:
    def test_inner_join(self, s):
        out = run(s, "SELECT e.id, d.budget FROM emp e JOIN dept d "
                     "ON e.dept = d.dept ORDER BY e.id")
        assert len(out) == 5                    # hr has no dept row
        assert out["budget"].tolist()[0] == 1000.0

    def test_left_join_fills(self, s):
        out = run(s, "SELECT e.id, d.budget FROM emp e LEFT JOIN dept d "
                     "ON e.dept = d.dept ORDER BY e.id")
        assert len(out) == 6
        assert np.isnan(out["budget"][4])       # hr row

    def test_cross_join(self, s):
        out = run(s, "SELECT e.id FROM emp e CROSS JOIN dept d")
        assert len(out) == 18

    def test_join_then_aggregate(self, s):
        out = run(s, "SELECT d.dept, SUM(e.salary) AS total FROM emp e "
                     "JOIN dept d ON e.dept = d.dept GROUP BY d.dept "
                     "ORDER BY total DESC")
        assert out["dept"].tolist() == ["eng", "sales"]

    def test_join_with_residual(self, s):
        out = run(s, "SELECT e.id FROM emp e JOIN dept d "
                     "ON e.dept = d.dept AND e.salary < d.budget ORDER BY e.id")
        assert len(out) == 5


class TestSubqueries:
    def test_nested_select(self, s):
        out = run(s, "SELECT COUNT(*) FROM "
                     "(SELECT id FROM emp WHERE salary > 90)")
        assert out["COUNT(*)"].tolist() == [3]

    def test_aggregate_over_subquery_aggregate(self, s):
        out = run(s, "SELECT AVG(c) FROM (SELECT dept, COUNT(*) AS c "
                     "FROM emp GROUP BY dept)")
        assert out["AVG(c)"][0] == pytest.approx(2.0)


class TestRuntimeBehaviour:
    def test_re_registration_changes_results(self, s):
        q = s.spark.query("SELECT COUNT(*) FROM emp")
        assert q.run().scalar() == 6
        s.sql.register_dict({"id": [1], "dept": ["x"], "salary": [1.0],
                             "senior": [False]}, "emp")
        assert q.run().scalar() == 1

    def test_re_registration_schema_check(self, s):
        q = s.spark.query("SELECT salary FROM emp")
        s.sql.register_dict({"id": [1]}, "emp")
        with pytest.raises(ExecutionError, match="no longer has columns"):
            q.run()

    def test_device_compilation(self, s):
        out = s.spark.query("SELECT dept, COUNT(*) FROM emp GROUP BY dept "
                            "ORDER BY dept", device="cuda").run(toPandas=True)
        assert out["COUNT(*)"].tolist() == [3, 1, 2]

    def test_empty_filter_result(self, s):
        out = run(s, "SELECT id, dept FROM emp WHERE salary > 1000")
        assert len(out) == 0

    def test_empty_group_by(self, s):
        out = run(s, "SELECT dept, COUNT(*) FROM emp WHERE salary > 1000 "
                     "GROUP BY dept")
        assert len(out) == 0

    def test_global_count_on_empty(self, s):
        out = run(s, "SELECT COUNT(*) FROM emp WHERE salary > 1000")
        assert out["COUNT(*)"].tolist() == [0]

    def test_scalar_result_api(self, s):
        result = s.spark.query("SELECT COUNT(*) FROM emp").run()
        assert result.scalar() == 6
        with pytest.raises(ExecutionError):
            s.spark.query("SELECT id FROM emp").run().scalar()

    def test_explain_contains_plan(self, s):
        q = s.spark.query("SELECT dept, COUNT(*) FROM emp GROUP BY dept")
        text = q.explain()
        assert "Aggregate" in text and "Scan(emp)" in text

    def test_unknown_config_key_rejected(self, s):
        with pytest.raises(ValueError):
            s.spark.query("SELECT id FROM emp", extra_config={"bogus": 1})
