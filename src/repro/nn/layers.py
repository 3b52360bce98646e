"""Neural-network layers with explicit forward/backward passes.

Every layer stores its learnable parameters in ``self.params`` (a dict of
NumPy arrays) and the matching gradients in ``self.grads``; non-learnable
state (BatchNorm running statistics) lives in ``self.buffers``.  The
federated aggregation code flattens params (and buffers) into a single
vector, so arrays are only ever mutated in place — their identity is part
of the layer contract.  (:class:`repro.nn.model.Sequential` relies on the
same contract to rebind these arrays to views into its contiguous arenas
at build time.)  All state is allocated in the configured compute dtype
(:mod:`repro.nn.dtypes`).

``backward`` **writes** the parameter gradients: each call replaces what
``self.grads`` held (``np.matmul(..., out=grads["W"])``), it does not add
to it.  Every training loop in the repo runs one backward per optimiser
step, so a step needs no ``zero_grad()`` first; ``zero_grad`` stays for
callers that want a known-zero gradient.  Parameterised layers also take
``param_grads=False`` — input gradient only, ``self.grads`` untouched.

Shapes follow the NCHW convention for images and ``(batch, features)`` for
dense inputs.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.dtypes import get_default_dtype
from repro.nn.initializers import get_initializer, zeros_init


class Layer:
    """Base class: a differentiable function with optional parameters."""

    #: True for layers that draw randomness at forward time (Dropout); the
    #: runtime reseeds these per (round, client) via ``Sequential.seed_forward``.
    stochastic: bool = False

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    # -- interface ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Write the parameter grads and return the gradient w.r.t. input."""
        raise NotImplementedError

    # -- helpers -----------------------------------------------------------
    def zero_grad(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)

    def _register(self, name: str, value: np.ndarray) -> None:
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        weight_init: str = "he_normal",
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        init = get_initializer(weight_init)
        self._register("W", init((in_features, out_features), rng))
        self.use_bias = bias
        if bias:
            self._register("b", zeros_init((out_features,), rng))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expects (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x if training else None
        out = x @ self.params["W"]
        if self.use_bias:
            out += self.params["b"]
        return out

    def backward(
        self, grad: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        """``input_grad=False`` writes the parameter grads only and returns
        ``None`` (the model's first layer: nobody reads ``dL/dx``);
        ``param_grads=False`` leaves ``self.grads`` alone."""
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        if param_grads:
            np.matmul(self._x.T, grad, out=self.grads["W"])
            if self.use_bias:
                np.add.reduce(grad, axis=0, out=self.grads["b"])
        if not input_grad:
            return None
        return grad @ self.params["W"].T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense({self.in_features}, {self.out_features})"


class Conv2D(Layer):
    """2-D convolution (cross-correlation) as one GEMM over the K-major
    columns of :func:`repro.nn.functional.unfold`; NCHW in and out."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        weight_init: str = "he_normal",
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid conv hyper-parameters")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        init = get_initializer(weight_init)
        self._register(
            "W", init((out_channels, in_channels, kernel_size, kernel_size), rng)
        )
        self.use_bias = bias
        if bias:
            self._register("b", zeros_init((out_channels,), rng))
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expects (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        o = self.out_channels
        cols = F.unfold(x, k, k, s, p)  # (C*k*k, N*OH*OW)
        out = self.params["W"].reshape(o, -1) @ cols  # (O, N*OH*OW)
        if self.use_bias:
            out += self.params["b"][:, None]
        self._cols = cols if training else None
        self._x_shape = x.shape if training else None
        out = out.reshape(o, n, F.conv_out_size(h, k, s, p), F.conv_out_size(w, k, s, p))
        return np.ascontiguousarray(out.transpose(1, 0, 2, 3))

    def backward(
        self, grad: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        """Both flags as in :meth:`Dense.backward`."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called without a training forward pass")
        o = self.out_channels
        g = np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).reshape(o, -1)  # (O, N*OH*OW)
        if param_grads:
            np.matmul(g, self._cols.T, out=self.grads["W"].reshape(o, -1))
            if self.use_bias:
                np.add.reduce(g, axis=1, out=self.grads["b"])
        if not input_grad:
            return None
        gcols = self.params["W"].reshape(o, -1).T @ g  # (C*k*k, N*OH*OW)
        return F.fold(
            gcols, self._x_shape, self.kernel_size, self.kernel_size, self.stride, self.padding
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


def _tiles(x: np.ndarray, k: int, oh: int, ow: int) -> list[np.ndarray]:
    """The ``k*k`` strided views of ``x`` holding entry ``(i, j)`` of every
    non-overlapping ``k x k`` window, in row-major ``(i, j)`` order."""
    return [
        x[:, :, i : k * oh : k, j : k * ow : k] for i in range(k) for j in range(k)
    ]


class MaxPool2D(Layer):
    """Max pooling over non-overlapping (or strided) windows.

    Non-overlapping pools (``stride == kernel_size``, every model in the
    zoo) work on the strided tile views of the input directly; only
    overlapping pools go through :func:`repro.nn.functional.unfold`.  Ties
    go to the first window entry in row-major order on both paths (post-ReLU
    windows are often all-zero, so the rule decides where the gradient lands).
    """

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        if kernel_size <= 0 or self.stride <= 0:
            raise ValueError("pool kernel size and stride must be positive")
        self._x_shape: tuple[int, int, int, int] | None = None
        self._argmax: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        oh = F.conv_out_size(h, k, s, 0)
        ow = F.conv_out_size(w, k, s, 0)
        arg = None
        if s != k:
            cols = F.unfold(x.reshape(n * c, 1, h, w), k, k, s, 0)  # (k*k, N*C*OH*OW)
            arg = cols.argmax(axis=0)
            out = cols[arg, np.arange(cols.shape[1])].reshape(n, c, oh, ow)
        else:
            if oh <= 0 or ow <= 0:
                raise ValueError(
                    f"kernel ({k}x{k}, stride={s}, pad=0) too large for input {h}x{w}"
                )
            tiles = _tiles(x, k, oh, ow)
            out = np.maximum(tiles[0], tiles[1]) if k > 1 else tiles[0].copy()
            for tile in tiles[2:]:
                np.maximum(out, tile, out=out)
            if training:
                # First entry equal to the maximum = how many leading
                # entries differ from it.
                differs = tiles[0] != out
                arg = differs.astype(np.min_scalar_type(k * k - 1))
                for tile in tiles[1:-1]:
                    differs &= tile != out
                    arg += differs
        self._x_shape = x.shape if training else None
        self._argmax = arg if training else None
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x_shape is None or self._argmax is None:
            raise RuntimeError("backward called without a training forward pass")
        n, c, h, w = self._x_shape
        k, s = self.kernel_size, self.stride
        if s != k:
            cols = np.zeros((k * k, grad.size), dtype=grad.dtype)
            cols[self._argmax, np.arange(grad.size)] = grad.reshape(-1)
            return F.fold(cols, (n * c, 1, h, w), k, k, s, 0).reshape(n, c, h, w)
        oh, ow = grad.shape[2:]
        # Rows/columns past the last whole window were never pooled.
        alloc = np.empty if (h, w) == (k * oh, k * ow) else np.zeros
        gx = alloc((n, c, h, w), dtype=grad.dtype)
        for idx, tile in enumerate(_tiles(gx, k, oh, ow)):
            np.multiply(grad, self._argmax == idx, out=tile)
        return gx


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._shape = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called without a training forward pass")
        return grad.reshape(self._shape)


class Dropout(Layer):
    """Inverted dropout: active only in training mode.

    ``rng`` is the layer's own mask generator; execution backends install
    a per-``(round, client)`` override through ``Sequential.seed_forward``
    so dropout models stay bit-identical across backends and worker
    schedules.  Clearing the override (``seed_forward(None)``) restores
    the constructor generator for direct/legacy callers.
    """

    stochastic = True

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng
        self._forward_rng: np.random.Generator | None = None
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        rng = self._forward_rng if self._forward_rng is not None else self.rng
        self._mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class _BatchNorm(Layer):
    """Shared implementation for 1d/2d batch normalisation."""

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        dtype = get_default_dtype()
        self._register("gamma", np.ones(num_features, dtype=dtype))
        self._register("beta", np.zeros(num_features, dtype=dtype))
        self.buffers["running_mean"] = np.zeros(num_features, dtype=dtype)
        self.buffers["running_var"] = np.ones(num_features, dtype=dtype)
        self._cache: tuple | None = None

    def _normalize(self, x2: np.ndarray, training: bool) -> np.ndarray:
        """Normalise a (rows, features) view of the input."""
        if training:
            mean = x2.mean(axis=0)
            var = x2.var(axis=0)
            m = self.momentum
            self.buffers["running_mean"] *= 1.0 - m
            self.buffers["running_mean"] += m * mean
            self.buffers["running_var"] *= 1.0 - m
            self.buffers["running_var"] += m * var
        else:
            mean = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x2 - mean) * inv_std
        self._cache = (xhat, inv_std) if training else None
        return xhat * self.params["gamma"] + self.params["beta"]

    def _backward2(self, g2: np.ndarray, param_grads: bool) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        xhat, inv_std = self._cache
        m = g2.shape[0]
        if param_grads:
            np.add.reduce(g2 * xhat, axis=0, out=self.grads["gamma"])
            np.add.reduce(g2, axis=0, out=self.grads["beta"])
        gxhat = g2 * self.params["gamma"]
        # Standard batchnorm backward in one vectorised expression.
        return (
            inv_std
            / m
            * (m * gxhat - gxhat.sum(axis=0) - xhat * (gxhat * xhat).sum(axis=0))
        )


class BatchNorm1d(_BatchNorm):
    """Batch norm over (batch, features) inputs."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expects (batch, {self.num_features}), got {x.shape}"
            )
        return self._normalize(x, training)

    def backward(self, grad: np.ndarray, param_grads: bool = True) -> np.ndarray:
        return self._backward2(grad, param_grads)


class BatchNorm2d(_BatchNorm):
    """Batch norm over (N, C, H, W) inputs, per channel."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expects (N, {self.num_features}, H, W), got {x.shape}"
            )
        n, c, h, w = x.shape
        self._spatial = (n, c, h, w)
        x2 = x.transpose(0, 2, 3, 1).reshape(-1, c)
        out = self._normalize(x2, training)
        return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def backward(self, grad: np.ndarray, param_grads: bool = True) -> np.ndarray:
        n, c, h, w = self._spatial
        g2 = grad.transpose(0, 2, 3, 1).reshape(-1, c)
        gx = self._backward2(g2, param_grads)
        return gx.reshape(n, h, w, c).transpose(0, 3, 1, 2)


class _Activation(Layer):
    """Base for stateless element-wise activations."""

    def __init__(self) -> None:
        super().__init__()
        self._x: np.ndarray | None = None


class ReLU(_Activation):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        return grad * (self._x > 0)


class LeakyReLU(_Activation):
    """LeakyReLU — the activation used by the paper's policy/value networks."""

    def __init__(self, alpha: float = 0.01) -> None:
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("LeakyReLU slope alpha must be in [0, 1]")
        self.alpha = alpha

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return F.leaky_relu(x, self.alpha)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called without a training forward pass")
        return grad * F.leaky_relu_grad(self._x, self.alpha)
