"""One UDF call per evaluation (`UdfInfo.invoke` + `expr_eval._rehome`).

Both engine call sites (``ExpressionEvaluator._eval_BCall`` and
``TVFExec``) invoke a UDF once with its whole argument columns and move the
outputs to the query's device. Row tensors, EncodedTensor columns, scalar
constants and short broadcast tensors all reach the UDF as given, with and
without gradient recording, on ``cpu`` and ``cuda`` alike.
"""

import contextlib

import numpy as np
import pytest

from repro.core.expr_eval import _rehome
from repro.core.udf import UdfInfo, parse_output_schema
from repro.storage.column import Column
from repro.storage.encodings import DictionaryEncoding, EncodedTensor
from repro.tcr import nn
from repro.tcr.autograd import no_grad
from repro.tcr.device import as_device
from repro.tcr.tensor import Tensor

DEVICES = pytest.mark.parametrize("device", ["cpu", "cuda"])


def _info(func, schema="float", encoded_io=False, modules=None):
    return UdfInfo("f", func, parse_output_schema(schema), modules or [],
                   encoded_io=encoded_io)


def _call(info, args, device):
    """The engine's whole call protocol: one invoke, outputs re-homed."""
    return _rehome(info.invoke(args), as_device(device))


class TestOneCall:
    @DEVICES
    def test_whole_column_in_one_call_on_query_device(self, device):
        n = 1027
        calls = []

        def f(x):
            calls.append(x.shape[0])
            return x * 2.0

        data = np.arange(n, dtype=np.float32)
        (col,) = _call(_info(f), [Tensor(data)], device)
        assert calls == [n]
        np.testing.assert_allclose(col.tensor.data, data * 2.0)
        assert col.device == as_device(device)

    @DEVICES
    def test_multi_column_outputs_keep_names_and_order(self, device):
        def f(x):
            return x + 1.0, x - 1.0

        data = np.arange(5, dtype=np.float32)
        a, b = _call(_info(f, "A float, B float"), [Tensor(data)], device)
        assert (a.name, b.name) == ("A", "B")
        np.testing.assert_allclose(a.tensor.data, data + 1.0)
        np.testing.assert_allclose(b.tensor.data, data - 1.0)


class TestEncodedTensorArgs:
    @DEVICES
    def test_encoded_args_keep_encoding_and_order(self, device):
        column = Column.from_values("s", np.array(["b", "a", "c", "a", "b"]))
        assert isinstance(column.encoding, DictionaryEncoding)
        seen = []

        def f(enc):
            assert isinstance(enc, EncodedTensor)
            assert isinstance(enc.encoding, DictionaryEncoding)
            seen.append(enc.num_rows)
            return enc.tensor

        (col,) = _call(_info(f, "int", encoded_io=True), [column.encoded],
                       device)
        assert seen == [5]
        np.testing.assert_array_equal(col.tensor.data, column.tensor.data)


class TestScalarBroadcastArgs:
    @DEVICES
    def test_scalar_args_pass_unchanged(self, device):
        prefixes = []

        def f(prefix, x):
            prefixes.append(prefix)
            return x + float(len(prefix))

        data = np.arange(4, dtype=np.float32)
        (col,) = _call(_info(f), ["abc", Tensor(data)], device)
        assert prefixes == ["abc"]
        np.testing.assert_allclose(col.tensor.data, data + 3.0)

    @DEVICES
    def test_short_tensor_args_pass_unchanged(self, device):
        # A tensor whose leading dim != num_rows is a broadcast constant.
        weights = Tensor(np.ones(2, dtype=np.float32))
        shapes = []

        def f(w, x):
            shapes.append(w.shape[0])
            return x * w.data[0]

        data = np.arange(5, dtype=np.float32)
        (col,) = _call(_info(f), [weights, Tensor(data)], device)
        assert shapes == [2]
        np.testing.assert_allclose(col.tensor.data, data)


class TestGradRecording:
    @pytest.mark.parametrize("grad", [True, False])
    def test_one_call_with_or_without_grad(self, grad):
        model = nn.Linear(1, 1)
        calls = []

        def f(x):
            calls.append(x.shape[0])
            return model(x.reshape(-1, 1)).reshape(-1)

        data = np.arange(40, dtype=np.float32)
        with contextlib.nullcontext() if grad else no_grad():
            (col,) = _call(_info(f, modules=[model]), [Tensor(data)], "cpu")
        assert calls == [40]
        expected = (data.reshape(-1, 1) @ model.weight.data.T
                    + model.bias.data).reshape(-1)
        np.testing.assert_allclose(col.tensor.data, expected, rtol=1e-5)
