"""Tensor construction, dtype policy, conversion and device placement."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import AutogradError, DeviceError, ShapeError
from repro.tcr import ops


class TestConstruction:
    def test_float_lists_become_float32(self):
        t = tcr.tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_int_lists_become_int64(self):
        t = tcr.tensor([1, 2, 3])
        assert t.dtype == np.int64

    def test_bool_lists_stay_bool(self):
        t = tcr.tensor([True, False])
        assert t.dtype == np.bool_

    def test_float64_downcast_to_float32(self):
        t = tcr.tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float32

    def test_explicit_dtype_respected(self):
        t = tcr.tensor([1, 2], dtype=np.float64)
        assert t.dtype == np.float64

    def test_requires_grad_on_int_rejected(self):
        with pytest.raises(AutogradError):
            tcr.tensor([1, 2], requires_grad=True)

    def test_zeros_ones(self):
        assert tcr.zeros(2, 3).shape == (2, 3)
        assert tcr.ones((4,)).data.sum() == 4

# PyTorch's rule for a Python scalar beside a tensor (torch.result_type):
# the scalar is weak, so the tensor's dtype wins unless the scalar is of a
# higher category (bool < int < float); then an int scalar gives int64 and
# a float scalar float32. True division of a non-float result is float32.
_F32, _I64, _BOOL = np.dtype(np.float32), np.dtype(np.int64), np.dtype(np.bool_)
SCALAR_PROMOTION = {
    # (tensor dtype, scalar kind): result dtype of +, * and **
    (_F32, "bool"): _F32, (_F32, "int"): _F32, (_F32, "float"): _F32,
    (_I64, "bool"): _I64, (_I64, "int"): _I64, (_I64, "float"): _F32,
    (_BOOL, "bool"): _BOOL, (_BOOL, "int"): _I64, (_BOOL, "float"): _F32,
}
_SCALAR_VALUES = {"bool": True, "int": 2, "float": 0.5}


def _promotion_cases():
    for (dtype, kind), result in SCALAR_PROMOTION.items():
        ops_ = ["add", "mul", "div"] + (["sub", "pow"] if dtype != _BOOL else [])
        for op in ops_:
            want = _F32 if op == "div" and result.kind != "f" else result
            yield pytest.param(dtype, kind, op, want, id=f"{dtype}-{kind}-{op}")


class TestScalarPromotion:
    @pytest.mark.parametrize("dtype, kind, op, want", list(_promotion_cases()))
    def test_python_scalars_are_weak(self, dtype, kind, op, want):
        tensor = tcr.tensor(np.array([1, 2, 1]).astype(dtype), dtype=dtype)
        scalar = _SCALAR_VALUES[kind]
        fn = getattr(ops, op)
        assert fn(tensor, scalar).dtype == want
        if op != "pow":
            assert fn(scalar, tensor).dtype == want

    def test_values_follow_the_promoted_dtype(self):
        x = tcr.tensor([1.5, -2.0])
        np.testing.assert_array_equal((x * 2).data, np.float32([3.0, -4.0]))
        np.testing.assert_array_equal((x ** 2).data, np.float32([2.25, 4.0]))
        n = tcr.tensor([1, 3])
        np.testing.assert_array_equal((n * 0.5).data, np.float32([0.5, 1.5]))
        assert (n / 3).dtype == np.float32
        assert (n + 1).dtype == np.int64
        # A narrow int tensor keeps its dtype (and wraps, as in PyTorch);
        # a scalar outside its range falls back to numpy's promotion.
        small = tcr.tensor(np.array([1, 2], dtype=np.uint8), dtype=np.uint8)
        assert (small - 3).data.tolist() == [254, 255]
        assert (small + 300).data.tolist() == [301, 302]

    def test_gradient_keeps_float32_through_scalar_ops(self):
        x = tcr.tensor([1.0, 2.0, 3.0], requires_grad=True)
        loss = ((x * 2 + 1) ** 2 / 3).sum()
        assert loss.dtype == np.float32
        loss.backward()
        assert x.grad.dtype == np.float32
        np.testing.assert_allclose(x.grad, 4 * (2 * x.data + 1) / 3, rtol=1e-6)

    def test_numpy_arrays_keep_numpy_promotion(self):
        x = tcr.tensor([1.0, 2.0])
        assert ops.mul(x, np.array([2, 3])).dtype == np.float64


class TestIntrospection:
    def test_shape_ndim_numel(self):
        t = tcr.zeros(2, 3, 4)
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.numel() == 24
        assert t.shape[1] == 3
        assert len(t) == 2

    def test_len_of_scalar_raises(self):
        with pytest.raises(ShapeError):
            len(tcr.tensor(1.0))

    def test_item_requires_single_element(self):
        assert tcr.tensor([3.5]).item() == pytest.approx(3.5)
        with pytest.raises(ShapeError):
            tcr.tensor([1.0, 2.0]).item()

    def test_bool_of_multielement_raises(self):
        with pytest.raises(ShapeError):
            bool(tcr.tensor([1.0, 2.0]))

    def test_repr_mentions_grad_and_device(self):
        t = tcr.tensor([1.0], requires_grad=True, device="cuda")
        text = repr(t)
        assert "requires_grad=True" in text
        assert "cuda" in text


class TestConversion:
    def test_detach_shares_buffer(self):
        t = tcr.tensor([1.0, 2.0])
        assert t.detach().data is t.data

    def test_dtype_casts(self):
        t = tcr.tensor([1.7, 2.2])
        assert t.long().dtype == np.int64
        assert t.long().data.tolist() == [1, 2]
        assert t.astype(np.bool_).dtype == np.bool_
        assert t.astype(np.float64).dtype == np.float64


class TestDevice:
    def test_default_cpu(self):
        assert tcr.tensor([1.0]).device == tcr.CPU

    def test_to_cuda_and_back(self):
        t = tcr.tensor([1.0, 2.0])
        gpu = t.to(device="cuda")
        assert gpu.device == tcr.CUDA
        assert gpu is not t               # distinct tensor, retagged buffer
        assert gpu.to(device="cpu").device == tcr.CPU

    def test_cross_device_op_rejected(self):
        a = tcr.tensor([1.0])
        b = tcr.tensor([1.0], device="cuda")
        with pytest.raises(DeviceError):
            a + b

    def test_device_transfer_is_differentiable(self):
        t = tcr.tensor([1.0, 2.0], requires_grad=True)
        (t.to(device="cuda") * 3.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [3.0, 3.0])

    def test_unknown_device_rejected(self):
        with pytest.raises(DeviceError):
            tcr.as_device("tpu")


class TestInplaceAssignment:
    def test_setitem_on_plain_tensor(self):
        t = tcr.zeros(4)
        t[1] = 5.0
        assert t.data.tolist() == [0.0, 5.0, 0.0, 0.0]

    def test_setitem_with_tensor_index(self):
        t = tcr.zeros(4)
        t[tcr.tensor([0, 2])] = 1.0
        assert t.data.tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_setitem_on_graph_tensor_rejected(self):
        t = tcr.tensor([1.0], requires_grad=True)
        with pytest.raises(AutogradError):
            t[0] = 2.0
