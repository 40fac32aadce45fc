"""Optimizers and learning-rate schedulers."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.tensor.parameter import Parameter


class Optimizer:
    """Base class holding the parameter list and the shared step counter."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self.step_count = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        for p, vel in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel *= self.momentum
                vel += grad
                update = vel
            else:
                update = grad
            p.data -= self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _apply_decay(self, p: Parameter, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            return grad + self.weight_decay * p.data
        return grad

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = self._apply_decay(p, p.grad)
            # two temporaries per parameter, every other op in place
            step = grad * (1 - self.beta1)
            m *= self.beta1
            m += step
            denom = np.square(grad)
            denom *= 1 - self.beta2
            v *= self.beta2
            v += denom
            np.divide(m, bias1, out=step)  # m_hat
            step *= self.lr
            np.divide(v, bias2, out=denom)  # v_hat
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.data -= step
