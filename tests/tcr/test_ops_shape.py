"""Shape ops: values, errors and adjoints."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import ShapeError
from repro.tcr import ops
from repro.tcr.tensor import Tensor

from tests.tcr.gradcheck import assert_grad_matches


class TestValues:
    def test_reshape_and_view(self):
        t = tcr.arange(6, dtype=np.float32)
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.view(3, -1).shape == (3, 2)

    def test_transpose_permute(self):
        t = tcr.zeros(2, 3, 4)
        assert ops.transpose(t, 0, 2).shape == (4, 3, 2)
        assert ops.permute(t, (1, 2, 0)).shape == (3, 4, 2)
        assert t.T.shape == (4, 3, 2)

    def test_permute_requires_full_permutation(self):
        with pytest.raises(ShapeError):
            ops.permute(tcr.zeros(2, 3), (0, 0))

    def test_squeeze_unsqueeze(self):
        t = tcr.zeros(1, 3, 1)
        assert ops.squeeze(t).shape == (3,)
        assert ops.squeeze(t, 0).shape == (3, 1)
        assert ops.squeeze(t, 1).shape == (1, 3, 1)    # non-1 dim: no-op
        assert ops.unsqueeze(t, 0).shape == (1, 1, 3, 1)
        assert ops.unsqueeze(tcr.zeros(3), -1).shape == (3, 1)

    def test_flatten(self):
        t = tcr.zeros(2, 3, 4)
        assert ops.flatten(t).shape == (24,)
        assert ops.flatten(t, 1).shape == (2, 12)
        assert ops.flatten(t, 0, 1).shape == (6, 4)

    def test_broadcast_expand(self):
        t = tcr.tensor([[1.0], [2.0]])
        assert ops.broadcast_to(t, (2, 3)).data.tolist() == [[1, 1, 1], [2, 2, 2]]

    def test_cat_stack(self):
        a, b = tcr.ones(2, 2), tcr.zeros(2, 2)
        assert ops.cat([a, b], dim=0).shape == (4, 2)
        assert ops.cat([a, b], dim=1).shape == (2, 4)
        assert ops.stack([a, b], dim=0).shape == (2, 2, 2)
        assert ops.stack([a, b], dim=-1).shape == (2, 2, 2)

    def test_cat_empty_list_raises(self):
        with pytest.raises(ShapeError):
            ops.cat([], dim=0)

    def test_split_chunk(self):
        t = tcr.arange(10, dtype=np.float32)
        parts = ops.split(t, 4)
        assert [p.shape[0] for p in parts] == [4, 4, 2]
        chunks = ops.chunk(t, 3)
        assert [c.shape[0] for c in chunks] == [4, 4, 2]

    def test_pad2d(self):
        t = tcr.ones(1, 1, 2, 2)
        padded = ops.pad2d(t, 1)
        assert padded.shape == (1, 1, 4, 4)
        assert padded.data.sum() == 4.0

    def test_tile(self):
        t = tcr.tensor([[1.0, 2.0]])
        assert ops.tile(t, (2, 2)).shape == (2, 4)

    def test_flip(self):
        t = tcr.tensor([1.0, 2.0, 3.0])
        assert ops.flip(t, 0).data.tolist() == [3.0, 2.0, 1.0]


class TestGradients:
    def test_reshape_transpose_grads(self):
        assert_grad_matches(
            lambda a: (a.reshape(6) * np.arange(6)).sum()
            + ops.transpose(a, 0, 1).sum(), [(2, 3)],
        )

    def test_permute_grad(self):
        weights = Tensor(np.arange(24, dtype=np.float64).reshape(4, 3, 2))
        assert_grad_matches(lambda a: (ops.permute(a, (2, 1, 0)) * weights).sum(),
                            [(2, 3, 4)])

    def test_broadcast_to_grad(self):
        assert_grad_matches(lambda a: ops.broadcast_to(a, (4, 3)).sum(), [(3,)])

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

    def test_pad_tile_flip_grads(self):
        assert_grad_matches(lambda a: ops.pad2d(a, (1, 0, 2, 1)).sum() * 3.0,
                            [(1, 1, 3, 3)])
        weights = Tensor(np.arange(12, dtype=np.float64).reshape(2, 6))
        assert_grad_matches(lambda a: (ops.tile(a, (2, 3)) * weights).sum(),
                            [(1, 2)])
        weights2 = Tensor(np.arange(4, dtype=np.float64))
        assert_grad_matches(lambda a: (ops.flip(a, 0) * weights2).sum(), [(4,)])

    def test_split_grad(self):
        assert_grad_matches(
            lambda a: sum((p * (i + 1)).sum() for i, p in enumerate(ops.split(a, 2))),
            [(5,)],
        )
