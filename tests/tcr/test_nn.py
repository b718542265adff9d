"""nn.Module system, layers, losses, norm layers."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import ShapeError, TdpError
from repro.tcr import nn
from repro.tcr.nn import functional as F
from repro.tcr.tensor import Tensor

from tests.tcr.gradcheck import assert_grad_matches


class TestModuleSystem:
    def test_parameter_registration(self):
        lin = nn.Linear(3, 2)
        names = dict(lin.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert sum(p.data.size for p in lin.parameters()) == 3 * 2 + 2

    def test_nested_modules_and_prefixes(self):
        model = nn.Sequential(nn.Linear(2, 4), nn.ReLU(), nn.Linear(4, 1))
        names = [n for n, _ in model.named_parameters()]
        assert "0.weight" in names and "2.bias" in names
        assert len(list(model.parameters())) == 4

    def test_shared_parameter_yielded_once(self):
        lin = nn.Linear(2, 2)
        holder = nn.Sequential(lin, lin)
        assert len(list(holder.parameters())) == 2

    def test_train_eval_propagates(self):
        child = nn.ReLU()
        model = nn.Sequential(child)
        model.eval()
        assert not child.training
        model.train()
        assert child.training

    def test_state_dict_roundtrip(self):
        a = nn.Linear(3, 3)
        b = nn.Linear(3, 3)
        b.load_state_dict(a.state_dict())
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_state_dict_strict_mismatch(self):
        a = nn.Linear(3, 3)
        with pytest.raises(TdpError):
            a.load_state_dict({"weight": np.zeros((3, 3))})

    def test_state_dict_shape_mismatch(self):
        a = nn.Linear(3, 3)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(TdpError):
            a.load_state_dict(state)


class TestLayers:
    def test_linear_matches_manual(self, rng):
        lin = nn.Linear(4, 3)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        got = lin(Tensor(x)).data
        want = x @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_linear_without_bias(self):
        lin = nn.Linear(4, 3, bias=False)
        assert lin.bias is None
        assert len(list(lin.parameters())) == 1

    def test_conv_output_shape(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        out = conv(tcr.zeros(2, 3, 16, 16))
        assert out.shape == (2, 8, 8, 8)

    def test_flatten_layer(self):
        assert nn.Flatten()(tcr.zeros(2, 3, 4)).shape == (2, 12)


class TestNorm:
    def test_batchnorm_normalises_in_train(self, rng):
        bn = nn.BatchNorm2d(3)
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 3, 4, 4)).astype(np.float32))
        out = bn(x).data
        assert abs(out.mean()) < 1e-4
        assert abs(out.std() - 1.0) < 1e-2

    def test_batchnorm_running_stats_used_in_eval(self, rng):
        bn = nn.BatchNorm2d(2)
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 3, 3)).astype(np.float32))
        for _ in range(60):
            bn(x)
        bn.eval()
        out = bn(x).data
        assert abs(out.mean()) < 0.2

    def test_batchnorm_channel_check(self):
        bn = nn.BatchNorm2d(3)
        with pytest.raises(ShapeError):
            bn(tcr.zeros(1, 2, 4, 4))

    def test_batchnorm_grad(self):
        bn = nn.BatchNorm2d(2)
        x = tcr.randn(4, 2, 3, 3, requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.weight.grad is not None


class TestLosses:
    def test_mse(self):
        loss = nn.MSELoss()(tcr.tensor([1.0, 2.0]), tcr.tensor([0.0, 0.0]))
        assert loss.item() == pytest.approx(2.5)

    def test_mse_shape_check(self):
        with pytest.raises(ShapeError):
            nn.MSELoss()(tcr.zeros(2), tcr.zeros(3))

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.normal(size=(6, 4)).astype(np.float32)
        targets = rng.integers(0, 4, size=6)
        got = nn.CrossEntropyLoss()(Tensor(logits), Tensor(targets)).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        want = -log_probs[np.arange(6), targets].mean()
        assert got == pytest.approx(want, rel=1e-5)

    def test_cross_entropy_grad(self):
        assert_grad_matches(
            lambda logits: nn.CrossEntropyLoss()(
                logits, Tensor(np.array([0, 2, 1]))),
            [(3, 4)],
        )


class TestFunctional:
    def test_normalize_unit_norm(self, rng):
        x = Tensor(rng.normal(size=(5, 3)).astype(np.float32))
        norms = np.linalg.norm(F.normalize(x).data, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-4)
