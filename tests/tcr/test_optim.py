"""Optimisers: convergence and mechanics."""

import numpy as np
import pytest

from repro import tcr
from repro.errors import TdpError
from repro.tcr import nn, optim


def _fit(optimizer_factory, steps=300):
    """Fit y = 3x + 1 with one Linear layer; return final loss."""
    tcr.manual_seed(0)
    model = nn.Linear(1, 1)
    opt = optimizer_factory(model.parameters())
    x = tcr.randn(64, 1)
    y = x * 3.0 + 1.0
    loss = None
    for _ in range(steps):
        opt.zero_grad()
        loss = nn.MSELoss()(model(x), y)
        loss.backward()
        opt.step()
    return loss.item(), model


class TestAdam:
    def test_converges(self):
        loss, model = _fit(lambda p: optim.Adam(p, lr=0.05))
        assert loss < 1e-4
        assert model.bias.item() == pytest.approx(1.0, abs=0.02)

    def test_bias_correction_first_step(self):
        p = nn.Parameter(np.zeros(1, dtype=np.float32))
        opt = optim.Adam([p], lr=0.1)
        p.grad = np.asarray([1.0], dtype=np.float32)
        opt.step()
        # With bias correction the first step ≈ -lr regardless of beta values.
        assert p.data[0] == pytest.approx(-0.1, rel=1e-3)


class TestValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(TdpError):
            optim.Adam([], lr=0.1)

    def test_non_positive_lr_rejected(self):
        with pytest.raises(TdpError):
            optim.Adam([nn.Parameter(np.zeros(1, dtype=np.float32))], lr=0.0)

    def test_zero_grad_clears(self):
        p = nn.Parameter(np.zeros(1, dtype=np.float32))
        opt = optim.Adam([p], lr=0.1)
        p.grad = np.asarray([1.0], dtype=np.float32)
        opt.zero_grad()
        assert p.grad is None
