"""The per-array optimiser loops, kept as the test reference.

``repro.nn.optim`` steps a model's contiguous arenas with fused vector
operations (Adam a :data:`~repro.nn.optim.BLOCK` at a time).  The path
it replaced — one Python loop over the model's ``(param, grad)`` pairs —
lives on here, unchanged, as the oracle: the arena steps must match it
with ``array_equal`` (same arithmetic in the same order, so the same
bits), in float32 and float64.
"""

from __future__ import annotations

import math

import numpy as np


class SGD:
    """Per-array SGD with optional momentum and weight decay."""

    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = (
            [np.zeros_like(p) for p, _ in self.parameters] if momentum > 0 else None
        )

    def step(self) -> None:
        for i, (p, g) in enumerate(self.parameters):
            update = g
            if self.weight_decay:
                update = update + self.weight_decay * p
            if self._velocity is not None:
                v = self._velocity[i]
                v *= self.momentum
                v += update
                update = v
            p -= self.lr * update


class ProximalSGD(SGD):
    """Per-array SGD plus the FedProx term ``mu * (w - anchor)``."""

    def __init__(self, parameters, lr=0.01, mu=0.01, momentum=0.0):
        super().__init__(parameters, lr=lr, momentum=momentum)
        self.mu = mu
        self._anchor: list[np.ndarray] | None = None

    def set_anchor(self, anchor: list[np.ndarray]) -> None:
        """Pin the anchor as one array per parameter (``param_arrays()``)."""
        if len(anchor) != len(self.parameters):
            raise ValueError("anchor does not match parameter count")
        for a, (p, _) in zip(anchor, self.parameters):
            if a.shape != p.shape:
                raise ValueError("anchor shapes do not match parameters")
        self._anchor = [a.copy() for a in anchor]

    def step(self) -> None:
        if self.mu > 0:
            for (p, g), a in zip(self.parameters, self._anchor):
                g += self.mu * (p - a)
        super().step()


class Adam:
    """Per-array Adam in the arena step's one-divide form."""

    def __init__(self, parameters, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p) for p, _ in self.parameters]
        self._v = [np.zeros_like(p) for p, _ in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        root_b2t = math.sqrt(1.0 - self.beta2**self._t)
        step = self.lr * root_b2t / (1.0 - self.beta1**self._t)
        eps_hat = self.eps * root_b2t
        for i, (p, g) in enumerate(self.parameters):
            m, v = self._moments(i, g)
            p -= step * m / (np.sqrt(v) + eps_hat)

    def _moments(self, i, g):
        m, v = self._m[i], self._v[i]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        return m, v


class AdamBiasCorrected(Adam):
    """Per-array Adam with the bias-corrected moments divided out explicitly
    (``lr * m_hat / (sqrt(v_hat) + eps)``, three divides per element): the
    arena step's algebraic equal, an ``allclose`` oracle only."""

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for i, (p, g) in enumerate(self.parameters):
            m, v = self._moments(i, g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
