"""Weight initialisers for the NumPy DL substrate.

Each initialiser is a pure function ``(shape, rng) -> ndarray`` so layers
stay deterministic given a seeded :class:`numpy.random.Generator`.  Draws
always consume the generator in float64 and are cast to the configured
compute dtype afterwards, so the RNG stream — and hence every downstream
seed-derived quantity — is identical at float32 and float64.  Fan-in /
fan-out are derived from the shape using the usual convention: for a Dense
kernel ``(in, out)`` fan_in = in; for a Conv2D kernel
``(out_ch, in_ch, kh, kw)`` fan_in = in_ch * kh * kw.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dtypes import get_default_dtype


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a kernel shape.

    Supports 1-D (bias), 2-D (dense) and 4-D (conv, OIHW layout) kernels.
    """
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = int(np.prod(shape[2:]))
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported kernel shape {shape!r}")


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Kaiming-normal init, the default for ReLU-family networks."""
    fan_in, _ = _fans(shape)
    std = math.sqrt(2.0 / max(fan_in, 1))
    return np.asarray(rng.normal(0.0, std, size=shape), dtype=get_default_dtype())


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot-uniform init, used for tanh/sigmoid output heads (DRL nets)."""
    fan_in, fan_out = _fans(shape)
    bound = math.sqrt(6.0 / max(fan_in + fan_out, 1))
    return np.asarray(rng.uniform(-bound, bound, size=shape), dtype=get_default_dtype())


def zeros_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """All-zeros init (biases)."""
    del rng
    return np.zeros(shape, dtype=get_default_dtype())


INITIALIZERS = {
    "he_normal": he_normal,
    "xavier_uniform": xavier_uniform,
    "zeros": zeros_init,
}


def get_initializer(name: str):
    """Look up an initialiser by name, raising a helpful error for typos."""
    try:
        return INITIALIZERS[name]
    except KeyError:
        raise ValueError(
            f"unknown initializer {name!r}; available: {sorted(INITIALIZERS)}"
        ) from None
