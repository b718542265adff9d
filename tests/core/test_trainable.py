"""Trainable queries: differentiability, soft/exact swap, training dynamics."""

import numpy as np
import pytest

from repro.core.config import constants
from repro.core.session import Session
from repro.errors import ExecutionError
from repro.storage.encodings import PEEncoding
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


class TestSoftFilter:
    def test_soft_filter_produces_weighted_counts(self):
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
        # exercises PE group over a multi-column table input
        counts = query.run()
        assert counts.shape == (2,)

    def test_soft_filter_keeps_rows_as_weights(self):
        session = Session()
        threshold_model = nn.Linear(1, 1)
        threshold_model.weight.data = np.array([[1.0]], dtype=np.float32)
        threshold_model.bias.data = np.array([0.0], dtype=np.float32)

        @session.udf("float", name="score", modules=[threshold_model])
        def score(x):
            return threshold_model(x.reshape(-1, 1)).reshape(-1)

        session.sql.register_dict({"x": [0.0, 10.0, -10.0]}, "t")
        simple = session.spark.query(
            "SELECT x FROM t WHERE score(x) > 0",
            extra_config={constants.TRAINABLE: True, constants.SOFT_FILTER: True},
        )
        result = simple.run()
        # Soft filter keeps all rows during training (weights, not deletion).
        assert result.shape[0] == 3

    def test_soft_filter_exact_in_eval(self):
        session = Session()
        session.sql.register_dict({"x": [-1.0, 2.0, 3.0]}, "t")
        query = session.spark.query(
            "SELECT x FROM t WHERE x > 0",
            extra_config={constants.TRAINABLE: True, constants.SOFT_FILTER: True},
        )
        query.eval()
        out = query.run(toPandas=True)
        assert out["x"].tolist() == [2.0, 3.0]


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
