"""The Adam optimiser."""

from __future__ import annotations

import numpy as np

from repro.tcr.optim.optimizer import Optimizer


class Adam(Optimizer):
    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, p, state, grad):
        step = state.get("step", 0) + 1
        state["step"] = step
        m = state.get("m")
        v = state.get("v")
        if m is None:
            m = np.zeros_like(p.data, dtype=np.float32)
            v = np.zeros_like(p.data, dtype=np.float32)
        m = self.beta1 * m + (1 - self.beta1) * grad
        v = self.beta2 * v + (1 - self.beta2) * grad * grad
        state["m"], state["v"] = m, v
        m_hat = m / (1 - self.beta1 ** step)
        v_hat = v / (1 - self.beta2 ** step)
        return m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self) -> None:
        for p, state in zip(self.params, self.state):
            if p.grad is None:
                continue
            grad = p.grad.astype(np.float32, copy=False)
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            update = self._update(p, state, grad)
            p.data = p.data - self.lr * update.astype(p.data.dtype, copy=False)
