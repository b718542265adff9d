"""Indexing: ``Tensor.__getitem__`` values and adjoints."""

import numpy as np

from repro import tcr

from tests.tcr.gradcheck import assert_grad_matches


class TestValues:
    def test_basic_slicing(self):
        t = tcr.tensor(np.arange(12).reshape(3, 4).astype(np.float32))
        assert t[1].data.tolist() == [4, 5, 6, 7]
        assert t[0:2, 1].data.tolist() == [1, 5]
        assert t[-1, -1].item() == 11

    def test_fancy_and_bool_indexing(self):
        t = tcr.tensor([10.0, 20.0, 30.0, 40.0])
        assert t[[0, 2]].data.tolist() == [10.0, 30.0]
        assert t[tcr.tensor([3, 3])].data.tolist() == [40.0, 40.0]
        mask = tcr.tensor([True, False, True, False])
        assert t[mask].data.tolist() == [10.0, 30.0]


class TestGradients:
    def test_getitem_slice_grad(self):
        assert_grad_matches(lambda a: (a[1:3] * 2.0).sum(), [(5,)])

    def test_getitem_repeated_fancy_index_accumulates(self):
        t = tcr.tensor([1.0, 2.0], requires_grad=True)
        t[np.array([0, 0, 1])].sum().backward()
        assert t.grad.tolist() == [2.0, 1.0]
