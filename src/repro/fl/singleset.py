"""SingleSet: the centralised-training reference used in Tables 3 and 4.

"Training all the data samples of all the clients in a single machine";
it is the IID upper bound the federated methods are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.losses import SoftmaxCrossEntropy, evaluate_loss
from repro.nn.optim import SGD


@dataclass
class SingleSetResult:
    """Per-epoch accuracy trace and the best value (the table entry)."""

    accuracies: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)

    @property
    def best_accuracy(self) -> float:
        if not self.accuracies:
            raise ValueError("no epochs were run")
        return max(self.accuracies)


def train_singleset(
    train_set: ArrayDataset,
    test_set: ArrayDataset,
    model_factory,
    epochs: int,
    lr: float = 0.01,
    batch_size: int = 10,
    seed: int = 0,
) -> SingleSetResult:
    """Plain centralised SGD over the concatenated data of all clients."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    model = model_factory(np.random.default_rng(seed))
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(model, lr=lr)  # fused arena steps
    rng = np.random.default_rng(seed + 1)
    result = SingleSetResult()
    for _ in range(epochs):
        for xb, yb in train_set.batches(batch_size, rng=rng):
            model.train_batch(loss, xb, yb)
            optimizer.step()
        test_loss, accuracy = evaluate_loss(
            model, loss, test_set.x, test_set.y, with_accuracy=True
        )
        result.accuracies.append(accuracy)
        result.losses.append(test_loss)
    return result
