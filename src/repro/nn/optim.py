"""Optimisers that step a model's contiguous arenas in place.

Every optimiser takes a :class:`repro.nn.model.Sequential` and steps its
parameter arena from its gradient arena: the whole update is a handful of
fused vector operations over two flat arrays (one axpy for plain SGD)
instead of a per-array Python loop.  All three stage through scratch
allocated once, so steady-state steps do no allocation: SGD and
ProximalSGD through one arena-sized buffer, Adam through two
:data:`BLOCK`-sized ones, a block of the arenas at a time.  The per-array
``(param, grad)`` loops they replaced live in
``tests/nn/reference_optim.py`` as the bit-identity oracle.

``step`` reads the gradients this step's ``backward`` *wrote* (layers
overwrite, they do not accumulate), so a training loop is ``train_batch``
then ``step``; ``zero_grad`` stays as API but is not part of a step.
``step`` mutates the parameters in place, keeping the arrays' identities
stable for the flat weight views used by the FL aggregation code.
"""

from __future__ import annotations

import math

import numpy as np

#: Elements per block of the whole-arena updates (Adam here, the DDPG
#: ``soft_update``): 128 KB of float64 per operand, so an Adam step's six
#: operands stay in L2 across its twelve passes.
BLOCK = 16384


def blocks(*flats: np.ndarray):
    """Aligned :data:`BLOCK`-sized slices of equal-length flat arrays; an
    elementwise update gives the same bits block by block as in one pass."""
    for start in range(0, flats[0].size, BLOCK):
        yield [flat[start : start + BLOCK] for flat in flats]


class Optimizer:
    """Base optimiser over a model's parameter and gradient arenas."""

    def __init__(self, model, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.bind(model)
        self.lr = lr

    def bind(self, model) -> None:
        """Step ``model``'s arenas, staging through fresh scratch.  An
        optimiser pickles without either, so an owner that pickles a model
        together with its optimiser binds them again afterwards (the DDPG
        agent does)."""
        params = model.flat_parameters()
        if not params.size:
            raise ValueError("optimizer needs at least one parameter")
        self._flat = (params, model.flat_grads())
        self._scratch = self._new_scratch(params)

    def _new_scratch(self, params: np.ndarray) -> np.ndarray:
        return np.empty_like(params)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_flat"], state["_scratch"]
        return state

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self._flat[1].fill(0.0)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    The paper's local solver: plain SGD, lr 0.01 — one fused axpy over
    the gradient arena.
    """

    def __init__(
        self,
        model,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(model, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = np.zeros_like(self._flat[0]) if momentum > 0 else None

    def step(self) -> None:
        p, g = self._flat
        update = g
        if self.weight_decay:
            # scratch = weight_decay * p + g: the reference loop's
            # g + weight_decay * p, and addition is commutative bit for bit.
            np.multiply(p, self.weight_decay, out=self._scratch)
            self._scratch += g
            update = self._scratch
        if self._velocity is not None:
            self._velocity *= self.momentum
            self._velocity += update
            update = self._velocity
        np.multiply(update, self.lr, out=self._scratch)
        p -= self._scratch


class ProximalSGD(SGD):
    """SGD with the FedProx proximal term.

    FedProx (Li et al., 2020) augments each client's local objective with
    ``(mu/2) * ||w - w_global||^2``; the gradient contribution is
    ``mu * (w - w_global)``.  ``set_anchor`` must be called with the global
    weights at the start of each communication round; the proximal term
    is one fused axpy into the gradient arena.
    """

    def __init__(
        self,
        model,
        lr: float = 0.01,
        mu: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(model, lr=lr, momentum=momentum)
        if mu < 0:
            raise ValueError("proximal coefficient mu must be non-negative")
        self.mu = mu
        self._anchor: np.ndarray | None = None

    def set_anchor(self, anchor: np.ndarray) -> None:
        """Pin the proximal anchor (the round's global weights) — a flat
        vector matching the model's parameter arena, copied."""
        anchor = np.asarray(anchor)
        if anchor.shape != self._flat[0].shape:
            raise ValueError("anchor does not match parameter count")
        self._anchor = anchor.astype(self._flat[0].dtype, copy=True)

    def step(self) -> None:
        if self.mu > 0:
            if self._anchor is None:
                raise RuntimeError(
                    "ProximalSGD.step called before set_anchor; FedProx needs "
                    "the round's global weights as the proximal anchor"
                )
            p, g = self._flat
            # g += mu * (p - anchor), staged through the step scratch buffer.
            np.subtract(p, self._anchor, out=self._scratch)
            self._scratch *= self.mu
            g += self._scratch
        super().step()


class Adam(Optimizer):
    """Adam; used for the DDPG policy/value networks (Table 1 LRs).

    The moment estimates are two flat arrays and the update runs block by
    block (see the module doc), in Kingma & Ba's one-divide form (their
    §2, last paragraph): the bias corrections fold into the step size and
    epsilon, ``p -= step * m / (sqrt(v) + eps_hat)`` with
    ``step = lr * sqrt(1 - beta2^t) / (1 - beta1^t)`` and
    ``eps_hat = eps * sqrt(1 - beta2^t)`` — algebraically
    ``lr * m_hat / (sqrt(v_hat) + eps)``, with one array divide and one
    sqrt per element.
    """

    def __init__(
        self,
        model,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(model, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = np.zeros_like(self._flat[0])
        self._v = np.zeros_like(self._flat[0])
        self._t = 0

    def _new_scratch(self, params: np.ndarray) -> np.ndarray:
        return np.empty((2, min(BLOCK, params.size)), params.dtype)

    def step(self) -> None:
        self._t += 1
        root_b2t = math.sqrt(1.0 - self.beta2**self._t)
        step = self.lr * root_b2t / (1.0 - self.beta1**self._t)
        eps_hat = self.eps * root_b2t
        # Same association order as the per-array reference loop, so both
        # are bit-identical (float multiply is commutative, not associative).
        for p, g, m, v in blocks(*self._flat, self._m, self._v):
            s1, s2 = self._scratch[:, : p.size]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s1)
            s1 *= g
            v += s1
            # p -= step * m / (sqrt(v) + eps_hat)
            np.sqrt(v, out=s2)
            s2 += eps_hat
            np.multiply(m, step, out=s1)
            s1 /= s2
            p -= s1
