"""The Adam optimizer every model of the paper trains with.

Adam updates fully in place: each step writes into two preallocated
scratch buffers per parameter instead of allocating fresh temporaries for
the weight-decay term, ``m_hat``/``v_hat`` and the update itself.  Every
in-place expression applies the same scalar operations in an order that
is bitwise-equivalent to the original allocating formulation (only
commutative reorderings such as ``g·c`` for ``c·g``), so parameter
trajectories are unchanged to the last bit — see
``tests/test_train_engine.py`` for the regression oracle.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer holding a parameter list."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        """Drop gradient buffers of every managed parameter.

        ``Tensor.zero_grad`` sets ``grad = None`` rather than zero-filling,
        so the next backward pass allocates (or reuses, via the owned-array
        fast path) buffers on demand instead of clearing full-size arrays.
        """
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch1 = [np.empty_like(p.data) for p in self.parameters]
        self._scratch2 = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param, m, v, s1, s2 in zip(
            self.parameters, self._m, self._v, self._scratch1, self._scratch2
        ):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                np.multiply(param.data, self.weight_decay, out=s1)
                s1 += grad
                grad = s1
            # m ← β₁·m + (1−β₁)·g
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=s2)
            m += s2
            # v ← β₂·v + (1−β₂)·g²
            np.multiply(grad, grad, out=s2)
            s2 *= 1.0 - self.beta2
            v *= self.beta2
            v += s2
            # θ ← θ − lr·m̂ / (√v̂ + ε)
            np.divide(v, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            np.divide(m, bias1, out=s1)
            s1 *= self.lr
            s1 /= s2
            param.data -= s1
