"""``repro.nn`` — a from-scratch, vectorised NumPy deep-learning substrate.

The FedDRL paper trains PyTorch models on GPUs; this package provides the
equivalent differentiable-model substrate in pure NumPy so the whole
federated pipeline (clients, server, DRL agent) runs on CPU with no
external DL framework.  All hot paths are vectorised (convolutions lowered
to GEMMs over K-major ``unfold`` columns in bounded sample chunks, batched
matrix multiplies) per the HPC-Python guidance used by this repo.

Public surface
--------------
* :class:`~repro.nn.model.Sequential` — container with forward/backward,
  flat-weight get/set used by the federated aggregation code.
* Layers: :class:`~repro.nn.layers.Dense`, :class:`~repro.nn.layers.Conv2D`,
  :class:`~repro.nn.layers.MaxPool2D`, :class:`~repro.nn.layers.Flatten`,
  :class:`~repro.nn.layers.Dropout`, :class:`~repro.nn.layers.BatchNorm1d`,
  :class:`~repro.nn.layers.BatchNorm2d`, :class:`~repro.nn.layers.ReLU`,
  :class:`~repro.nn.layers.LeakyReLU`.
* Losses: :class:`~repro.nn.losses.SoftmaxCrossEntropy`,
  :class:`~repro.nn.losses.MSELoss`.
* Optimisers: :class:`~repro.nn.optim.SGD`,
  :class:`~repro.nn.optim.ProximalSGD`, :class:`~repro.nn.optim.Adam`.
* Model zoo: :func:`~repro.nn.models.simple_cnn`, :func:`~repro.nn.models.vgg11`,
  :func:`~repro.nn.models.vgg_mini`, :func:`~repro.nn.models.mlp`.
* Compute dtype: :func:`~repro.nn.dtypes.set_default_dtype` /
  :func:`~repro.nn.dtypes.get_default_dtype` /
  :func:`~repro.nn.dtypes.default_dtype` — float32 or float64 (default)
  for every substrate allocation, including the parameter arenas.
"""

from repro.nn.dtypes import (
    SUPPORTED_DTYPES,
    default_dtype,
    get_default_dtype,
    set_default_dtype,
)
from repro.nn.initializers import he_normal, xavier_uniform, zeros_init
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    LeakyReLU,
    MaxPool2D,
    ReLU,
)
from repro.nn.losses import Loss, MSELoss, SoftmaxCrossEntropy
from repro.nn.metrics import top1_accuracy
from repro.nn.model import Sequential
from repro.nn.models import mlp, simple_cnn, vgg11, vgg_mini
from repro.nn.optim import SGD, Adam, Optimizer, ProximalSGD

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "Flatten",
    "Dropout",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Loss",
    "SoftmaxCrossEntropy",
    "MSELoss",
    "Optimizer",
    "SGD",
    "ProximalSGD",
    "Adam",
    "Sequential",
    "simple_cnn",
    "vgg11",
    "vgg_mini",
    "mlp",
    "top1_accuracy",
    "he_normal",
    "xavier_uniform",
    "zeros_init",
    "SUPPORTED_DTYPES",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
]
