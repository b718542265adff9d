"""Reductions: values and adjoints."""

import numpy as np
import pytest

from repro import tcr
from repro.tcr import ops
from repro.tcr.tensor import Tensor

from tests.tcr.gradcheck import assert_grad_matches


class TestValues:
    def test_sum_dims_and_keepdim(self):
        t = tcr.tensor(np.arange(24).reshape(2, 3, 4).astype(np.float32))
        assert ops.sum(t).item() == 276
        assert ops.sum(t, dim=1).shape == (2, 4)
        assert ops.sum(t, dim=(0, 2), keepdim=True).shape == (1, 3, 1)

    def test_mean_var_std(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        t = tcr.tensor(data)
        assert ops.mean(t).item() == pytest.approx(2.5)
        assert ops.var(t, unbiased=False).item() == pytest.approx(data.var())
        assert ops.std(t, dim=0, unbiased=True).shape == (2,)

    def test_max_min_global(self):
        t = tcr.tensor([[1.0, 9.0], [5.0, 2.0]])
        assert ops.max(t).item() == 9.0
        assert ops.min(t).item() == 1.0

    def test_max_with_dim_returns_values_and_indices(self):
        t = tcr.tensor([[1.0, 9.0], [5.0, 2.0]])
        values, indices = ops.max(t, dim=1)
        assert values.data.tolist() == [9.0, 5.0]
        assert indices.data.tolist() == [1, 0]

    def test_argmax_argmin(self):
        t = tcr.tensor([[1.0, 9.0], [5.0, 2.0]])
        assert ops.argmax(t).item() == 1
        assert ops.argmax(t, dim=0).data.tolist() == [1, 0]
        assert ops.argmin(t, dim=1).data.tolist() == [0, 1]

    def test_cumsum(self):
        t = tcr.tensor([1.0, 2.0, 3.0])
        assert ops.cumsum(t).data.tolist() == [1.0, 3.0, 6.0]

    def test_logsumexp_matches_naive(self):
        data = np.random.default_rng(0).normal(size=(3, 5)).astype(np.float32)
        t = tcr.tensor(data)
        got = ops.logsumexp(t, dim=1).data
        want = np.log(np.exp(data).sum(axis=1))
        np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_logsumexp_is_stable_for_large_inputs(self):
        t = tcr.tensor([1000.0, 1000.0])
        assert np.isfinite(ops.logsumexp(t, dim=0).item())

    def test_all_any(self):
        t = tcr.tensor([[True, False], [True, True]])
        assert not ops.all(t).item()
        assert ops.any(t).item()
        assert ops.all(t, dim=1).data.tolist() == [False, True]

    def test_prod(self):
        t = tcr.tensor([2.0, 3.0, 4.0])
        assert ops.prod(t).item() == 24.0


class TestGradients:
    def test_sum_mean_grads(self):
        assert_grad_matches(lambda a: a.sum() + a.mean(dim=0).sum(), [(3, 4)])

    def test_var_std_grads(self):
        assert_grad_matches(lambda a: ops.var(a, dim=1).sum() + ops.std(a).sum(),
                            [(4, 5)])

    def test_max_min_grads(self):
        assert_grad_matches(lambda a: ops.max(a, dim=1)[0].sum()
                            + ops.min(a).sum(), [(3, 4)])

    def test_cumsum_grad(self):
        weights = Tensor(np.arange(5, dtype=np.float64))
        assert_grad_matches(lambda a: (ops.cumsum(a, 0) * weights).sum(), [(5,)])

    def test_logsumexp_grad(self):
        assert_grad_matches(lambda a: ops.logsumexp(a, dim=1).sum(), [(3, 4)])

    def test_prod_grad(self):
        assert_grad_matches(lambda a: ops.prod(a).sum(), [(4,)], positive=True)
