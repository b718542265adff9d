"""Shape ops: values, errors and adjoints."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import ShapeError
from repro.tcr import ops
from repro.tcr.tensor import Tensor

from tests.tcr.gradcheck import assert_grad_matches


class TestValues:
    def test_reshape(self):
        t = tcr.tensor(np.arange(6, dtype=np.float32))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape((3, -1)).shape == (3, 2)

    def test_permute(self):
        t = tcr.zeros(2, 3, 4)
        assert ops.permute(t, (1, 2, 0)).shape == (3, 4, 2)
        assert t.T.shape == (4, 3, 2)

    def test_permute_requires_full_permutation(self):
        with pytest.raises(ShapeError):
            ops.permute(tcr.zeros(2, 3), (0, 0))

    def test_flatten(self):
        t = tcr.zeros(2, 3, 4)
        assert ops.flatten(t).shape == (24,)
        assert ops.flatten(t, 1).shape == (2, 12)
        assert ops.flatten(t, 0, 1).shape == (6, 4)

    def test_cat_stack(self):
        a, b = tcr.ones(2, 2), tcr.zeros(2, 2)
        assert ops.cat([a, b], dim=0).shape == (4, 2)
        assert ops.cat([a, b], dim=1).shape == (2, 4)
        assert ops.stack([a, b], dim=0).shape == (2, 2, 2)
        assert ops.stack([a, b], dim=-1).shape == (2, 2, 2)

    def test_cat_empty_list_raises(self):
        with pytest.raises(ShapeError):
            ops.cat([], dim=0)


class TestGradients:
    def test_reshape_grad(self):
        assert_grad_matches(
            lambda a: (a.reshape(6) * np.arange(6)).sum(), [(2, 3)],
        )

    def test_permute_grad(self):
        weights = Tensor(np.arange(24, dtype=np.float64).reshape(4, 3, 2))
        assert_grad_matches(lambda a: (ops.permute(a, (2, 1, 0)) * weights).sum(),
                            [(2, 3, 4)])

    def test_cat_stack_grads(self):
        weights = Tensor(np.arange(8, dtype=np.float64).reshape(4, 2))
        assert_grad_matches(
            lambda a, b: (ops.cat([a, b], dim=0) * weights).sum(),
            [(2, 2), (2, 2)],
        )
        assert_grad_matches(
            lambda a, b: ops.stack([a, b], dim=1).sum() * 2.0,
            [(3,), (3,)],
        )
