"""Loss functions with analytic gradients.

Losses are dtype-transparent: every intermediate (log-softmax, probs, the
logit gradient) inherits the dtype of the incoming logits, so a float32
model backpropagates float32 end to end; only the reported scalar loss is
widened to a Python float.
"""

from __future__ import annotations

import numpy as np


class Loss:
    """Interface: ``forward`` returns a scalar, ``backward`` the logit grad."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, pred: np.ndarray, target: np.ndarray) -> float:
        return self.forward(pred, target)


class SoftmaxCrossEntropy(Loss):
    """Mean softmax cross-entropy over integer class labels.

    ``forward`` takes raw logits of shape ``(batch, classes)`` and integer
    labels of shape ``(batch,)``.  The combined softmax+CE backward is the
    classic ``(p - y) / batch``, built in the probability buffer ``forward``
    left behind — so one ``backward`` per ``forward``.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._target: np.ndarray | None = None
        self._rows = np.arange(0)  # row index, rebuilt when the batch size changes

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        if pred.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {pred.shape}")
        target = np.asarray(target)
        n = pred.shape[0]
        if target.shape != (n,):
            raise ValueError(f"labels shape {target.shape} does not match batch {n}")
        if self._rows.shape[0] != n:
            self._rows = np.arange(n)
        # functional.log_softmax, then exp, in one buffer.
        buf = pred - np.maximum.reduce(pred, axis=1, keepdims=True)
        buf -= np.log(np.add.reduce(np.exp(buf), axis=1, keepdims=True))
        picked = buf[self._rows, target]
        self._probs = np.exp(buf, out=buf)
        self._target = target
        return float(-(picked.sum() / n))

    def backward(self) -> np.ndarray:
        if self._probs is None or self._target is None:
            raise RuntimeError("backward needs a forward it has not consumed yet")
        grad, self._probs = self._probs, None
        grad[self._rows, self._target] -= 1.0
        grad /= grad.shape[0]
        return grad


class MSELoss(Loss):
    """Mean squared error; ``backward`` consumes ``forward``'s difference."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, pred: np.ndarray, target: np.ndarray) -> float:
        if pred.shape != np.asarray(target).shape:
            raise ValueError(
                f"pred shape {pred.shape} does not match target {np.shape(target)}"
            )
        self._diff = pred - target
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward needs a forward it has not consumed yet")
        grad, self._diff = self._diff, None
        grad *= 2.0
        grad /= grad.size
        return grad


def evaluate_loss(
    model,
    loss: Loss,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
    *,
    with_accuracy: bool = False,
) -> float | tuple[float, float]:
    """Average ``loss`` of ``model`` over a dataset without storing activations.

    This is the inference pass clients run to produce the ``l_b`` / ``l_a``
    state components of FedDRL; it is deliberately batched so large local
    datasets do not blow up memory.

    ``with_accuracy=True`` is the server's test pass: the same logits also
    feed the arg-max count and the result is ``(loss, top-1 accuracy)`` —
    exactly ``(evaluate_loss(...), top1_accuracy(...))`` from one forward
    pass per batch instead of two.
    """
    n = x.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate loss on an empty dataset")
    total = 0.0
    hits = 0
    for start in range(0, n, batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits = model.forward(xb, training=False)
        total += loss.forward(logits, yb) * xb.shape[0]
        if with_accuracy:
            hits += np.count_nonzero(logits.argmax(axis=1) == yb)
    if with_accuracy:
        return total / n, hits / n
    return total / n
