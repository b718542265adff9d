"""Trainable queries: differentiability, soft/exact swap, training dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import constants
from repro.core.session import Session
from repro.errors import ExecutionError
from repro.storage.encodings import PEEncoding
from repro import tcr
from repro.tcr import nn, optim
from repro.tcr.tensor import Tensor


@pytest.fixture
def trainable_setup():
    session = Session()
    model = nn.Linear(2, 2)

    @session.udf("Label float", name="classify", modules=[model])
    def classify(x):
        return PEEncoding.encode(model(x), domain=[0, 1])

    rng = np.random.default_rng(0)
    features = rng.normal(size=(32, 2)).astype(np.float32)
    session.sql.register_tensor(Tensor(features), "bag")
    query = session.spark.query(
        "SELECT Label, COUNT(*) FROM classify(bag) GROUP BY Label",
        extra_config={constants.TRAINABLE: True},
    )
    return session, query, model, features


class TestTrainableMechanics:
    def test_run_returns_differentiable_tensor(self, trainable_setup):
        _, query, _, _ = trainable_setup
        counts = query.run()
        assert isinstance(counts, Tensor)
        assert counts.requires_grad
        assert counts.shape == (2,)
        assert counts.data.sum() == pytest.approx(32.0, rel=1e-4)

    def test_parameters_reach_udf_model(self, trainable_setup):
        _, query, model, _ = trainable_setup
        params = {id(p) for p in query.parameters()}
        assert id(model.weight) in params
        assert id(model.bias) in params

    def test_backward_populates_grads(self, trainable_setup):
        _, query, model, _ = trainable_setup
        query.run().sum().backward()
        assert model.weight.grad is not None

    def test_eval_mode_returns_exact_result(self, trainable_setup):
        _, query, model, features = trainable_setup
        query.eval()
        result = query.run(toPandas=True)
        labels = model(Tensor(features)).data.argmax(axis=1)
        want = np.bincount(labels, minlength=2)
        np.testing.assert_array_equal(result["COUNT(*)"], want)

    def test_eval_output_is_dense_over_domain(self, trainable_setup):
        _, query, _, _ = trainable_setup
        query.eval()
        result = query.run(toPandas=True)
        assert result["Label"].tolist() == [0, 1]     # both classes present

    def test_soft_counts_close_to_exact_when_confident(self):
        session = Session()
        model = nn.Linear(1, 2)
        model.weight.data = np.array([[-20.0], [20.0]], dtype=np.float32)
        model.bias.data = np.zeros(2, dtype=np.float32)

        @session.udf("Label float", name="confident", modules=[model])
        def confident(x):
            return PEEncoding.encode(model(x), domain=[0, 1])

        data = np.array([[-1.0], [-1.0], [1.0]], dtype=np.float32)
        session.sql.register_tensor(Tensor(data), "b")
        query = session.spark.query(
            "SELECT Label, COUNT(*) FROM confident(b) GROUP BY Label",
            extra_config={constants.TRAINABLE: True},
        )
        soft = query.run().data
        np.testing.assert_allclose(soft, [2.0, 1.0], atol=1e-4)

    def test_training_reduces_count_loss(self, trainable_setup):
        _, query, _, features = trainable_setup
        target = Tensor(np.array([24.0, 8.0], dtype=np.float32))
        opt = optim.Adam(query.parameters(), lr=0.1)
        first = None
        for _ in range(60):
            opt.zero_grad()
            loss = ((query.run() - target) ** 2).mean()
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        assert loss.item() < first * 0.05

    def test_non_pe_group_key_gives_clear_error(self):
        session = Session()
        session.sql.register_dict({"a": [1, 2], "b": [1.0, 2.0]}, "t")
        query = session.spark.query(
            "SELECT a, COUNT(*) FROM t GROUP BY a",
            extra_config={constants.TRAINABLE: True},
        )
        with pytest.raises(ExecutionError, match="Probability-Encoded"):
            query.run()

    def test_min_max_not_relaxable(self, trainable_setup):
        session, _, _, _ = trainable_setup
        query = session.spark.query(
            "SELECT Label, MIN(Label) FROM classify(bag) GROUP BY Label",
            extra_config={constants.TRAINABLE: True},
        )
        with pytest.raises(ExecutionError, match="relaxation"):
            query.run()


class TestMultiColumnTVFInput:
    def test_pe_group_over_multi_column_tvf_input(self):
        session = Session()
        session.sql.register_dict(
            {"x": [0.0, 0.5, 1.0], "label": [0, 0, 1]}, "t")
        model = nn.Linear(1, 2)

        # A FROM-clause TVF receives one positional arg per table column.
        @session.udf("L float", name="lab", modules=[model])
        def lab(x, label):
            return PEEncoding.encode(model(x.reshape(-1, 1)), domain=[0, 1])

        query = session.spark.query(
            "SELECT L, COUNT(*) FROM lab(t) GROUP BY L",
            extra_config={constants.TRAINABLE: True},
        )
        counts = query.run()
        assert counts.shape == (2,)


def _random_probs(rng, n, k):
    raw = rng.random((n, k)).astype(np.float32) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


class TestSoftAggregateThroughSQL:
    """The soft GROUP BY's math, checked through SQL: joint membership is
    the Khatri-Rao product of the PE keys, summed over rows."""

    @staticmethod
    def _session(columns, schema, data, modules=()):
        """Table ``b`` holds ``data`` as one (rows, 1) tensor column, and
        the TVF ``parse(b)`` returns ``columns(x)``."""
        session = Session()

        @session.udf(schema, name="parse", modules=list(modules))
        def parse(x):
            return columns(x)

        data = np.asarray(data, dtype=np.float32).reshape(-1, 1)
        session.sql.register_tensor(Tensor(data), "b")
        return session

    def _classified(self, weight, data):
        """``parse(b)`` -> ``(Label, v)``: a ``Linear(1, 2)`` with ``weight``
        and zero bias as a PE column over {0, 1}, and ``b`` itself."""
        model = nn.Linear(1, 2)
        model.weight.data = np.array(weight, dtype=np.float32).reshape(2, 1)
        model.bias.data = np.zeros(2, dtype=np.float32)
        session = self._session(
            lambda x: (PEEncoding.encode(model(x), domain=[0, 1]), x.reshape(-1)),
            "Label float, v float", data, modules=[model])
        return session, model

    @staticmethod
    def _query(session, sql):
        return session.spark.query(sql, extra_config={constants.TRAINABLE: True})

    def test_two_pe_keys_count_is_the_membership_product(self, rng):
        p1, p2 = _random_probs(rng, 20, 10), _random_probs(rng, 20, 2)
        session = self._session(
            lambda x: (PEEncoding.encode(p1, logits=False),
                       PEEncoding.encode(p2, domain=[5, 7], logits=False)),
            "D float, S float", np.zeros(20))
        query = self._query(
            session, "SELECT D, S, COUNT(*) AS c FROM parse(b) GROUP BY D, S")
        want = (p1.T @ p2).reshape(-1)          # digit-major flattening
        np.testing.assert_allclose(query.run().data, want, rtol=1e-5)
        frame = query.run(toPandas=True)
        assert frame["D"].tolist() == np.repeat(np.arange(10), 2).tolist()
        assert frame["S"].tolist() == [5, 7] * 10
        np.testing.assert_allclose(frame["c"], want, rtol=1e-5)

    def test_one_hot_inputs_equal_exact_group_by(self, rng):
        digits, sizes = rng.integers(0, 4, size=40), rng.integers(0, 2, size=40)
        session = self._session(
            lambda x: (PEEncoding.encode(np.eye(4, dtype=np.float32)[digits]),
                       PEEncoding.encode(np.eye(2, dtype=np.float32)[sizes])),
            "D float, S float", np.zeros(40))
        soft = self._query(
            session, "SELECT D, S, COUNT(*) FROM parse(b) GROUP BY D, S").run()
        session.sql.register_dict({"d": digits, "s": sizes}, "t")
        exact = session.sql.query(
            "SELECT d, s, COUNT(*) AS c FROM t GROUP BY d, s").run(toPandas=True)
        want = np.zeros((4, 2))
        want[exact["d"], exact["s"]] = exact["c"]
        np.testing.assert_allclose(soft.data, want.reshape(-1), rtol=1e-5)

    def test_soft_sum_and_avg_on_one_hot_inputs_match_numpy(self, rng):
        labels = rng.permutation(np.arange(30) % 3)
        values = rng.normal(size=30).astype(np.float32)
        session = self._session(
            lambda x: (PEEncoding.encode(np.eye(3, dtype=np.float32)[labels]),
                       values),
            "L float, v float", np.zeros(30))
        got = self._query(
            session, "SELECT L, SUM(v), AVG(v) FROM parse(b) GROUP BY L").run()
        assert got.shape == (3, 2)
        want_sum = [values[labels == c].sum() for c in range(3)]
        want_avg = [values[labels == c].mean() for c in range(3)]
        np.testing.assert_allclose(got.data[:, 0], want_sum, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(got.data[:, 1], want_avg, rtol=1e-4, atol=1e-5)

    def test_sum_gradient_reaches_udf_parameters(self):
        session, model = self._classified([0.8, -0.5], np.arange(5))
        model.bias.data = np.array([0.1, -0.1], dtype=np.float32)
        query = self._query(
            session, "SELECT Label, SUM(v) FROM parse(b) GROUP BY Label")
        TestTrainablePipelineGradient._assert_gradcheck(query, model, (2,))

    @given(st.integers(1, 30), st.integers(2, 6), st.integers(2, 4))
    @settings(max_examples=20, deadline=None)
    def test_soft_counts_total_the_row_count(self, n, k1, k2):
        rng = np.random.default_rng(n * 100 + k1 * 10 + k2)
        p1, p2 = _random_probs(rng, n, k1), _random_probs(rng, n, k2)
        session = self._session(
            lambda x: (PEEncoding.encode(p1, logits=False),
                       PEEncoding.encode(p2, logits=False)),
            "A float, B float", np.zeros(n))
        counts = self._query(
            session, "SELECT A, B, COUNT(*) FROM parse(b) GROUP BY A, B").run()
        assert counts.shape == (k1 * k2,)
        assert counts.data.sum() == pytest.approx(float(n), rel=1e-4)

    def test_distinct_is_rejected_in_training_and_eval(self):
        session, _ = self._classified([-20.0, 20.0], [-1, -1, 1, 1, 1])
        query = self._query(
            session, "SELECT Label, COUNT(DISTINCT v) FROM parse(b) GROUP BY Label")
        with pytest.raises(ExecutionError, match="DISTINCT"):
            query.run()
        query.eval()
        with pytest.raises(ExecutionError, match="DISTINCT"):
            query.run()

    def test_where_is_exact_before_the_soft_aggregate(self):
        """A WHERE in a trainable query drops rows, in training and in
        eval; the surviving rows' probabilities still carry gradients."""
        data = np.array([-2.0, -1.0, 0.5, 1.0, 3.0], dtype=np.float32)
        session, model = self._classified([-0.6, 0.9], data)
        query = self._query(
            session, "SELECT Label, COUNT(*) FROM parse(b) WHERE v > 0 GROUP BY Label")
        logits = data[data > 0, None] @ model.weight.data.T
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)

        counts = query.run()
        np.testing.assert_allclose(counts.data, probs.sum(axis=0), rtol=1e-5)
        (counts * counts).sum().backward()
        assert np.abs(model.weight.grad).max() > 1e-3

        query.eval()
        exact = query.run(toPandas=True)
        want = np.bincount(logits.argmax(axis=1), minlength=2)
        np.testing.assert_array_equal(exact["COUNT(*)"], want)

    def test_count_gradient_is_one_per_row_and_class(self):
        """d(sum of soft counts) / d(membership) is 1 everywhere: each row's
        probability mass lands in exactly one count per class."""
        probs = tcr.tensor([[0.3, 0.7], [0.6, 0.4], [0.1, 0.9]], requires_grad=True)
        session = self._session(
            lambda x: PEEncoding.encode(probs, logits=False), "L float", np.zeros(3))
        counts = self._query(
            session, "SELECT L, COUNT(*) FROM parse(b) GROUP BY L").run()
        np.testing.assert_allclose(counts.data, [1.0, 2.0], rtol=1e-5)
        counts.sum().backward()
        np.testing.assert_allclose(probs.grad, np.ones((3, 2)))

    def test_three_pe_keys_count_is_the_triple_product(self, rng):
        ps = [_random_probs(rng, 12, k) for k in (2, 3, 4)]
        session = self._session(
            lambda x: tuple(PEEncoding.encode(p, logits=False) for p in ps),
            "A float, B float, C float", np.zeros(12))
        frame = self._query(
            session, "SELECT A, B, C, COUNT(*) AS c FROM parse(b) GROUP BY A, B, C"
        ).run(toPandas=True)
        want = np.einsum("ri,rj,rk->ijk", *ps).reshape(-1)
        np.testing.assert_allclose(frame["c"], want, rtol=1e-5)
        assert frame["c"].sum() == pytest.approx(12.0, rel=1e-4)
        assert frame["A"].tolist() == np.repeat(np.arange(2), 12).tolist()
        assert frame["C"].tolist() == list(range(4)) * 6

    def test_single_pe_key_over_a_sparse_domain(self, rng):
        p = _random_probs(rng, 9, 2)
        session = self._session(
            lambda x: PEEncoding.encode(p, domain=[5, 7], logits=False),
            "L float", np.zeros(9))
        query = self._query(
            session, "SELECT L, COUNT(*) AS c FROM parse(b) GROUP BY L")
        frame = query.run(toPandas=True)
        assert frame["L"].tolist() == [5, 7]
        np.testing.assert_allclose(frame["c"], p.sum(axis=0), rtol=1e-5)
        query.eval()
        exact = query.run(toPandas=True)
        assert exact["L"].tolist() == [5, 7]
        assert exact["c"].tolist() == np.bincount(p.argmax(axis=1), minlength=2).tolist()

    def test_discrete_int_key_mixes_with_a_pe_key(self, rng):
        """A grid id groups exactly (one-hot membership) next to a PE key."""
        grids = np.array([3, 1, 3, 3, 1, 1, 1], dtype=np.int64)
        p = _random_probs(rng, 7, 2)
        session = self._session(
            lambda x: (grids, PEEncoding.encode(p, logits=False)),
            "g int, L float", np.zeros(7))
        frame = self._query(
            session, "SELECT g, L, COUNT(*) AS c FROM parse(b) GROUP BY g, L"
        ).run(toPandas=True)
        assert frame["g"].tolist() == [1, 1, 3, 3]
        assert frame["L"].tolist() == [0, 1, 0, 1]
        want = np.concatenate([p[grids == 1].sum(axis=0), p[grids == 3].sum(axis=0)])
        np.testing.assert_allclose(frame["c"], want, rtol=1e-5)

    def test_discrete_string_key_mixes_with_a_pe_key(self, rng):
        names = np.array(["S", "L", "S", "L", "L"], dtype=object)
        p = _random_probs(rng, 5, 3)
        session = self._session(
            lambda x: (PEEncoding.encode(p, logits=False), names),
            "D float, size string", np.zeros(5))
        query = self._query(
            session, "SELECT D, size, COUNT(*) AS c FROM parse(b) GROUP BY D, size")
        frame = query.run(toPandas=True)
        assert frame["D"].tolist() == [0, 0, 1, 1, 2, 2]
        assert frame["size"].tolist() == ["L", "S"] * 3
        large, small = p[names == "L"].sum(axis=0), p[names == "S"].sum(axis=0)
        np.testing.assert_allclose(
            frame["c"], np.stack([large, small], axis=1).reshape(-1), rtol=1e-5)

    def test_avg_gradient_reaches_udf_parameters(self):
        session, model = self._classified([0.8, -0.5], np.arange(5))
        model.bias.data = np.array([0.1, -0.1], dtype=np.float32)
        query = self._query(
            session, "SELECT Label, AVG(v) FROM parse(b) GROUP BY Label")
        TestTrainablePipelineGradient._assert_gradcheck(query, model, (2,))

    def test_eval_sum_and_avg_are_exact_over_the_dense_domain(self):
        """Eval aggregates the argmax groups exactly; a class no row picks
        keeps its row, with SUM and AVG 0."""
        session = self._session(
            lambda x: (PEEncoding.encode(np.eye(3, dtype=np.float32)[[0, 0, 2, 2, 2]]),
                       x.reshape(-1)),
            "L float, v float", [1.0, 3.0, 2.0, 4.0, 9.0])
        query = self._query(
            session, "SELECT L, SUM(v) AS s, AVG(v) AS a FROM parse(b) GROUP BY L")
        query.eval()
        frame = query.run(toPandas=True)
        assert frame["L"].tolist() == [0, 1, 2]
        np.testing.assert_allclose(frame["s"], [4.0, 0.0, 15.0])
        np.testing.assert_allclose(frame["a"], [2.0, 0.0, 5.0])

    def test_min_is_rejected_in_eval_too(self):
        session, _ = self._classified([-20.0, 20.0], [-1, 1, 1])
        query = self._query(
            session, "SELECT Label, MIN(v) FROM parse(b) GROUP BY Label")
        with pytest.raises(ExecutionError, match="relaxation"):
            query.run()
        query.eval()
        with pytest.raises(ExecutionError, match="not supported on PE group keys"):
            query.run()

    @given(st.integers(1, 40), st.integers(2, 5), st.integers(2, 3))
    @settings(max_examples=20, deadline=None)
    def test_eval_counts_are_the_argmax_histogram(self, n, k1, k2):
        rng = np.random.default_rng(n * 100 + k1 * 10 + k2)
        p1, p2 = _random_probs(rng, n, k1), _random_probs(rng, n, k2)
        session = self._session(
            lambda x: (PEEncoding.encode(p1, logits=False),
                       PEEncoding.encode(p2, logits=False)),
            "A float, B float", np.zeros(n))
        query = self._query(
            session, "SELECT A, B, COUNT(*) AS c FROM parse(b) GROUP BY A, B")
        query.eval()
        frame = query.run(toPandas=True)
        want = np.zeros((k1, k2), dtype=np.int64)
        np.add.at(want, (p1.argmax(axis=1), p2.argmax(axis=1)), 1)
        assert frame["c"].tolist() == want.reshape(-1).tolist()
        assert frame["A"].tolist() == np.repeat(np.arange(k1), k2).tolist()


class TestTrainablePipelineGradient:
    """Trainable plans run the one expression lowering over tcr ops; the
    gradient w.r.t. a UDF's parameters matches central differences."""

    @staticmethod
    def _scored_session():
        session = Session()
        model = nn.Linear(1, 1)
        model.weight.data = np.array([[0.7]], dtype=np.float32)
        model.bias.data = np.array([-0.2], dtype=np.float32)

        @session.udf("float", name="score", modules=[model])
        def score(x):
            return model(x.reshape(-1, 1)).reshape(-1)

        session.sql.register_dict(
            {"x": np.array([-1.0, 0.5, 1.5, -0.3, 2.0], dtype=np.float32)}, "t")
        return session, model

    @staticmethod
    def _assert_gradcheck(query, model, shape):
        import os
        import sys
        sys.path.insert(0, os.path.join(os.path.dirname(
            os.path.abspath(__file__)), "..", "tcr"))
        from gradcheck import numeric_grad

        def loss(*_params):
            out = query.run()
            return (out * out).sum()

        value = loss()
        assert value.requires_grad and query.run().shape == shape
        value.backward()
        for param in (model.weight, model.bias):
            expected = numeric_grad(loss, [model.weight, model.bias],
                                    0 if param is model.weight else 1)
            assert np.abs(expected).max() > 1e-3        # a real dependence
            np.testing.assert_allclose(param.grad, expected, rtol=1e-2, atol=1e-3)

    def test_gradcheck_through_filter_project_stage(self):
        """mask → index vector → gather → evaluate, in one stage."""
        session, model = self._scored_session()
        query = session.spark.query(
            "SELECT score(x) * x AS v FROM t WHERE x > 0",
            extra_config={constants.TRAINABLE: True})
        physical = query.explain().split("== Physical operators ==")[1]
        assert physical.strip().splitlines() == [
            "Pipeline[interp]([(x > 0)] -> v)", "  Scan(t)"]
        self._assert_gradcheck(query, model, (3,))

    def test_gradcheck_through_aggregate_argument_and_op_table(self):
        """An aggregate argument is lowered like any other expression: CASE
        (literal first branch, UDF else), COALESCE with a literal fill and
        a two-argument ROUND all compute against ``(1,)``-shaped literals,
        and tcr's backward un-broadcasts them."""
        session, model = self._scored_session()
        query = session.spark.query(
            "SELECT SUM(CASE WHEN x > 1 THEN 1.5 ELSE score(x) * 2.0 END "
            "+ COALESCE(score(x), 1.0) * ROUND(x, 1)) AS total, "
            "AVG(CASE WHEN x > 0 THEN score(x) ELSE 0.25 END) AS mean FROM t",
            extra_config={constants.TRAINABLE: True})
        self._assert_gradcheck(query, model, (1, 2))
