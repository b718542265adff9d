"""Reductions: values and adjoints."""

import numpy as np
import pytest

from repro import tcr
from repro.tcr import ops

from tests.tcr.gradcheck import assert_grad_matches


class TestValues:
    def test_sum_dims_and_keepdim(self):
        t = tcr.tensor(np.arange(24).reshape(2, 3, 4).astype(np.float32))
        assert ops.sum(t).item() == 276
        assert ops.sum(t, dim=1).shape == (2, 4)
        assert ops.sum(t, dim=(0, 2), keepdim=True).shape == (1, 3, 1)

    def test_mean_var(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        t = tcr.tensor(data)
        assert ops.mean(t).item() == pytest.approx(2.5)
        assert ops.var(t, unbiased=False).item() == pytest.approx(data.var())
        assert ops.var(t, dim=0, unbiased=True).shape == (2,)

    def test_max_min_global(self):
        t = tcr.tensor([[1.0, 9.0], [5.0, 2.0]])
        assert ops.max(t).item() == 9.0
        assert ops.min(t).item() == 1.0

    def test_max_with_dim_returns_values_and_indices(self):
        t = tcr.tensor([[1.0, 9.0], [5.0, 2.0]])
        values, indices = ops.max(t, dim=1)
        assert values.data.tolist() == [9.0, 5.0]
        assert indices.data.tolist() == [1, 0]


class TestGradients:
    def test_sum_mean_grads(self):
        assert_grad_matches(lambda a: a.sum() + a.mean(dim=0).sum(), [(3, 4)])

    def test_var_grads(self):
        assert_grad_matches(lambda a: ops.var(a, dim=1).sum() + ops.var(a).sum(),
                            [(4, 5)])

    def test_max_min_grads(self):
        assert_grad_matches(lambda a: ops.max(a, dim=1)[0].sum()
                            + ops.min(a).sum(), [(3, 4)])
