"""Model zoo: the architectures used by the paper's experiments.

The paper trains a "simple CNN" on MNIST / Fashion-MNIST (after Wu & Wang
2021) and VGG-11 on CIFAR-100.  We provide:

* :func:`simple_cnn` — 2 conv + pool blocks, 2 dense layers.
* :func:`vgg11` — the full VGG configuration A (8 conv layers), sized for
  32x32 inputs like the original CIFAR experiments.
* :func:`vgg_mini` — a scaled-down VGG-style net (4 conv layers) for the
  CPU-scale benchmark harness; same architecture family, much cheaper.
* :func:`mlp` — a dense network for the fastest CI-scale runs and the unit
  tests; also the building block of the DRL policy/value networks.

Every factory takes an explicit ``rng`` so that clients and the server can
build byte-identical initialisations from a shared seed.

Where the architecture says "ReLU, then max-pool" the factories emit
``MaxPool2D(k), ReLU()``.  Both layers are monotone selections, so
``relu(max(window)) == max(relu(window))``: the output, the tie-breaking,
the routed gradient and every parameter gradient come out bit-identical
(``tests/nn/test_relu_pool_order.py``), while ReLU's forward and backward
touch ``1/k**2`` of the elements.  No factory emits a ``ReLU`` directly
followed by a ``MaxPool2D``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LeakyReLU,
    MaxPool2D,
    ReLU,
)
from repro.nn.model import Sequential


def mlp(
    in_features: int,
    num_classes: int,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = (128, 64),
    activation: str = "relu",
) -> Sequential:
    """A dense classifier over flattened inputs."""
    if in_features <= 0 or num_classes <= 0:
        raise ValueError("in_features and num_classes must be positive")
    act = {"relu": ReLU, "leaky_relu": LeakyReLU}[activation]
    layers: list = [Flatten()]
    prev = in_features
    for width in hidden:
        layers.append(Dense(prev, width, rng))
        layers.append(act())
        prev = width
    layers.append(Dense(prev, num_classes, rng))
    return Sequential(layers)


def simple_cnn(
    in_channels: int,
    image_size: int,
    num_classes: int,
    rng: np.random.Generator,
    channels: tuple[int, int] = (16, 32),
    dense: int = 128,
) -> Sequential:
    """The paper's MNIST/Fashion-MNIST network: conv-pool x2 + two dense."""
    c1, c2 = channels
    layers = [
        Conv2D(in_channels, c1, 3, rng, padding=1),
        MaxPool2D(2),
        ReLU(),
        Conv2D(c1, c2, 3, rng, padding=1),
        MaxPool2D(2),
        ReLU(),
        Flatten(),
    ]
    spatial = image_size // 4
    if spatial < 1:
        raise ValueError(f"image_size {image_size} too small for two 2x pools")
    layers += [
        Dense(c2 * spatial * spatial, dense, rng),
        ReLU(),
        Dense(dense, num_classes, rng),
    ]
    return Sequential(layers)


def _vgg_block(layers: list, in_ch: int, out_ch: int, rng, batch_norm: bool) -> int:
    layers.append(Conv2D(in_ch, out_ch, 3, rng, padding=1))
    if batch_norm:
        layers.append(BatchNorm2d(out_ch))
    layers.append(ReLU())
    return out_ch


def vgg11(
    in_channels: int,
    image_size: int,
    num_classes: int,
    rng: np.random.Generator,
    batch_norm: bool = False,
    dropout: float = 0.5,
) -> Sequential:
    """VGG configuration A: 64, M, 128, M, 256x2, M, 512x2, M, 512x2, M.

    Sized for 32x32 CIFAR-style inputs (five 2x pools -> 1x1 spatial).
    """
    if image_size % 32 != 0:
        raise ValueError("vgg11 expects an image size divisible by 32")
    layers: list = []
    ch = in_channels
    for spec in (64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"):
        if spec == "M":
            # Pool below the block's trailing ReLU (see the module docstring).
            layers.insert(-1, MaxPool2D(2))
        else:
            ch = _vgg_block(layers, ch, int(spec), rng, batch_norm)
    spatial = image_size // 32
    layers.append(Flatten())
    feat = 512 * spatial * spatial
    layers += [
        Dense(feat, 512, rng),
        ReLU(),
        Dropout(dropout, rng),
        Dense(512, 512, rng),
        ReLU(),
        Dropout(dropout, rng),
        Dense(512, num_classes, rng),
    ]
    return Sequential(layers)


def vgg_mini(
    in_channels: int,
    image_size: int,
    num_classes: int,
    rng: np.random.Generator,
    width: int = 16,
) -> Sequential:
    """A 4-conv VGG-style net for CPU-scale benches (same family as VGG-11)."""
    if image_size % 4 != 0:
        raise ValueError("vgg_mini expects an image size divisible by 4")
    layers: list = [
        Conv2D(in_channels, width, 3, rng, padding=1),
        ReLU(),
        Conv2D(width, width, 3, rng, padding=1),
        MaxPool2D(2),
        ReLU(),
        Conv2D(width, 2 * width, 3, rng, padding=1),
        ReLU(),
        Conv2D(2 * width, 2 * width, 3, rng, padding=1),
        MaxPool2D(2),
        ReLU(),
        Flatten(),
    ]
    spatial = image_size // 4
    layers += [
        Dense(2 * width * spatial * spatial, 4 * width, rng),
        ReLU(),
        Dense(4 * width, num_classes, rng),
    ]
    return Sequential(layers)


MODEL_FACTORIES = {
    "mlp": mlp,
    "simple_cnn": simple_cnn,
    "vgg11": vgg11,
    "vgg_mini": vgg_mini,
}
