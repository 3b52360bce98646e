"""Optimisers operating in place on a model's parameter arrays.

An optimiser accepts either a :class:`repro.nn.model.Sequential` or the
legacy list of ``(param, grad)`` array pairs.  Given a ``Sequential``, it
steps the model's contiguous *arenas* directly: the whole update is a
handful of fused vector operations over two flat arrays (one axpy for
plain SGD) instead of a per-array Python loop.  All three stage through
scratch allocated once, so steady-state steps do no allocation: SGD and
ProximalSGD through one arena-sized buffer, Adam through two
:data:`BLOCK`-sized ones, a block of the arenas at a time.  Given a pair
list, it falls back to the per-array loop — same arithmetic in the same
order, so both paths (and both against the pre-arena implementation) are
bit-identical.

``step`` reads the gradients this step's ``backward`` *wrote* (layers
overwrite, they do not accumulate), so a training loop is ``train_batch``
then ``step``; ``zero_grad`` stays as API but is not part of a step.
``step`` mutates the params in place either way, keeping the arrays'
identities stable for the flat weight views used by the FL aggregation
code.
"""

from __future__ import annotations

import numpy as np

#: Elements per block of the whole-arena updates (Adam here, the DDPG
#: ``soft_update``): 128 KB of float64 per operand, so an Adam step's six
#: operands stay in L2 across its fourteen passes.
BLOCK = 16384


def blocks(*flats: np.ndarray):
    """Aligned :data:`BLOCK`-sized slices of equal-length flat arrays; an
    elementwise update gives the same bits block by block as in one pass."""
    for start in range(0, flats[0].size, BLOCK):
        yield [flat[start : start + BLOCK] for flat in flats]


class Optimizer:
    """Base optimiser over a model's arenas or ``(param, grad)`` pairs."""

    def __init__(self, parameters, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self._flat: tuple[np.ndarray, np.ndarray] | None = None
        if hasattr(parameters, "flat_parameters"):  # a Sequential-like model
            model = parameters
            self.parameters = model.parameters()
            flat_p = model.flat_parameters()
            if flat_p.size:
                self._flat = (flat_p, model.flat_grads())
        else:
            self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self._scratch = (
            np.empty_like(self._flat[0]) if self._flat is not None else None
        )

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        if self._flat is not None:
            self._flat[1].fill(0.0)
            return
        for _, g in self.parameters:
            g.fill(0.0)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    The paper's local solver: plain SGD, lr 0.01.  On an arena-backed
    model the step is one fused axpy over the gradient arena.
    """

    def __init__(
        self,
        parameters,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        if momentum > 0:
            self._velocity = (
                np.zeros_like(self._flat[0])
                if self._flat is not None
                else [np.zeros_like(p) for p, _ in self.parameters]
            )
        else:
            self._velocity = None

    def _step_flat(self) -> None:
        p, g = self._flat
        update = g
        if self.weight_decay:
            # scratch = g + weight_decay * p  (same arithmetic as the
            # per-array path: addition is commutative bit-for-bit).
            np.multiply(p, self.weight_decay, out=self._scratch)
            self._scratch += g
            update = self._scratch
        if self._velocity is not None:
            self._velocity *= self.momentum
            self._velocity += update
            update = self._velocity
        np.multiply(update, self.lr, out=self._scratch)
        p -= self._scratch

    def step(self) -> None:
        if self._flat is not None:
            self._step_flat()
            return
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
    """SGD with the FedProx proximal term.

    FedProx (Li et al., 2020) augments each client's local objective with
    ``(mu/2) * ||w - w_global||^2``; the gradient contribution is
    ``mu * (w - w_global)``.  ``set_anchor`` must be called with the global
    weights at the start of each communication round.  On an arena-backed
    model the anchor is one flat vector and the proximal term one fused
    axpy into the gradient arena.
    """

    def __init__(
        self,
        parameters,
        lr: float = 0.01,
        mu: float = 0.01,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr=lr, momentum=momentum)
        if mu < 0:
            raise ValueError("proximal coefficient mu must be non-negative")
        self.mu = mu
        self._anchor: list[np.ndarray] | None = None
        self._anchor_flat: np.ndarray | None = None

    def set_anchor(self, anchor: list[np.ndarray] | np.ndarray) -> None:
        """Pin the proximal anchor (the round's global weights).

        Accepts the per-array list (``model.param_arrays()``) or a flat
        vector matching the model's parameter arena.
        """
        if isinstance(anchor, np.ndarray) and anchor.ndim == 1:
            if self._flat is None:
                raise ValueError("flat anchors require an arena-backed model")
            if anchor.size != self._flat[0].size:
                raise ValueError("anchor does not match parameter count")
            self._anchor_flat = anchor.astype(self._flat[0].dtype, copy=True)
            self._anchor = None
            return
        if len(anchor) != len(self.parameters):
            raise ValueError("anchor does not match parameter count")
        for a, (p, _) in zip(anchor, self.parameters):
            if a.shape != p.shape:
                raise ValueError("anchor shapes do not match parameters")
        if self._flat is not None:
            flat = np.concatenate([np.asarray(a).ravel() for a in anchor])
            self._anchor_flat = flat.astype(self._flat[0].dtype, copy=False)
            self._anchor = None
        else:
            self._anchor = [a.copy() for a in anchor]

    def _add_proximal_flat(self) -> None:
        p, g = self._flat
        # g += mu * (p - anchor), staged through the step scratch buffer.
        np.subtract(p, self._anchor_flat, out=self._scratch)
        self._scratch *= self.mu
        g += self._scratch

    def step(self) -> None:
        if self.mu > 0:
            if self._anchor is None and self._anchor_flat is None:
                raise RuntimeError(
                    "ProximalSGD.step called before set_anchor; FedProx needs "
                    "the round's global weights as the proximal anchor"
                )
            if self._flat is not None:
                self._add_proximal_flat()
            else:
                for (p, g), a in zip(self.parameters, self._anchor):
                    g += self.mu * (p - a)
        super().step()


class Adam(Optimizer):
    """Adam; used for the DDPG policy/value networks (Table 1 LRs).

    On an arena-backed model the moment estimates are two flat arrays and
    the update runs block by block (see the module doc).
    """

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        if self._flat is not None:
            self._m = np.zeros_like(self._flat[0])
            self._v = np.zeros_like(self._flat[0])
            self._scratch = np.empty((2, min(BLOCK, self._m.size)), self._m.dtype)
        else:
            self._m = [np.zeros_like(p) for p, _ in self.parameters]
            self._v = [np.zeros_like(p) for p, _ in self.parameters]
        self._t = 0

    def _step_flat(self, b1t: float, b2t: float) -> None:
        # Same association order as the per-array path below, so both are
        # bit-identical (float multiply is commutative, not associative).
        for p, g, m, v in blocks(*self._flat, self._m, self._v):
            s1, s2 = self._scratch[:, : p.size]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=s1)
            s1 *= g
            v += s1
            # p -= lr * (m / b1t) / (sqrt(v / b2t) + eps)
            np.divide(m, b1t, out=s1)
            s1 *= self.lr
            np.divide(v, b2t, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            p -= s1

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        if self._flat is not None:
            self._step_flat(b1t, b2t)
            return
        for i, (p, g) in enumerate(self.parameters):
            m, v = self._m[i], self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
