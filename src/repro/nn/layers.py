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
dense inputs.  Image tensors are NCHW-*shaped*, not necessarily NCHW in
memory: :class:`Conv2D` returns its output (and its input gradient) as a
transposed view of a channel-major ``(C, N, H, W)`` array, pooling and the
activations keep whatever order they are given (a pool's input gradient
is channel-major), and the next ``unfold``
reads any strides — so activations stay channel-major until ``Flatten``'s
reshape copies them into a batch-major matrix.  Layers hold no workspace
between calls (a cached buffer would ride along in every pickle sent to
a worker or written to a checkpoint); a conv's bounded per-chunk
temporaries are left to the allocator to recycle.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import functional as F
from repro.nn.dtypes import get_default_dtype
from repro.nn.initializers import get_initializer, zeros_init


class Layer:
    """Base class: a differentiable function with optional parameters."""

    #: True for layers that draw randomness at forward time (Dropout); the
    #: runtime reseeds these per (round, client) via ``Sequential.seed_forward``.
    stochastic: bool = False
    #: What a training forward keeps for the next backward.  A pickle
    #: leaves these out: no backward reads one before a forward writes it.
    caches: tuple[str, ...] = ()

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

    caches = ("_x",)

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


#: Lowered-column elements one ``Conv2D`` chunk may hold: the forward
#: unfolds and multiplies, and the backward multiplies and folds, at most
#: this many ``C*k*k x OH*OW`` sample columns at a time, so an eval pass
#: never materialises the whole batch's columns.
CONV_CHUNK = 1 << 18

#: Chunks split the GEMMs' output columns at multiples of this many
#: columns, and only batches whose column count is a multiple too: the
#: OpenBLAS kernels numpy's wheel picks on an AVX-512 CPU (``SkylakeX``)
#: sweep the columns in steps of up to 16 and give a remainder a narrower
#: kernel, whose bits depend on how the call was blocked.
CONV_ALIGN = 16

#: The same kernels multiply matrices of up to this many multiply-adds
#: with a kernel that does not block the reduction, so such a call can
#: round where a larger one would not: a batch above it is split only into
#: chunks above it.  On both rules a chunked product is the one-call
#: product bit for bit (``tests/nn/test_conv_chunking.py``).  Other kernel
#: sets block differently (``OPENBLAS_CORETYPE=Haswell`` moves some float32
#: bits), as they already move the pinned digests (ROADMAP item 13).
SMALL_GEMM_MACS = 100**3


def _sample_chunks(n: int, span: int, rows: int, out_rows: int):
    """``(first, stop)`` sample ranges for a GEMM of ``out_rows x rows``
    weights over ``span`` columns per sample: at most :data:`CONV_CHUNK`
    column elements each unless one :data:`CONV_ALIGN` step or the
    :data:`SMALL_GEMM_MACS` floor takes more (the last range also takes a
    remainder below the floor); one range if ``n * span`` is unaligned."""
    unit = CONV_ALIGN // math.gcd(span, CONV_ALIGN)  # samples per aligned step
    macs = out_rows * rows * span  # per sample
    fewest = SMALL_GEMM_MACS // macs + 1 if n * macs > SMALL_GEMM_MACS else 1
    if n % unit:
        step = n
    else:  # the budget rounded down to whole steps, the floor rounded up
        step = unit * max(CONV_CHUNK // (rows * span) // unit, -(-fewest // unit), 1)
    first = 0
    while first < n:
        stop = n if n - first < step + fewest else first + step
        yield first, stop
        first = stop


class Conv2D(Layer):
    """2-D convolution (cross-correlation) as GEMMs over the K-major
    columns of :func:`repro.nn.functional.unfold`, in sample chunks of
    :data:`CONV_CHUNK` column elements.

    Input and output are NCHW-*shaped*; the output is channel-major in
    memory (a ``(N, O, OH, OW)`` transposed view of one ``(O, N, OH, OW)``
    array the chunks' GEMMs write into), and so is the input gradient.
    Every layer downstream accepts any strides, so activations keep that
    layout until ``Flatten``'s reshape.
    """

    caches = ("_cols", "_x_shape")

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
        oh, ow = F.conv_out_hw(h, w, k, k, s, p)
        w2d = self.params["W"].reshape(self.out_channels, -1)
        span = oh * ow
        out = np.empty((self.out_channels, n * span), np.result_type(w2d, x))
        # Training keeps every chunk's columns for the dW GEMM; eval lets
        # each chunk's die with its product.
        cols = np.empty((w2d.shape[1], n * span), x.dtype) if training else None
        for first, stop in _sample_chunks(n, span, w2d.shape[1], self.out_channels):
            part = slice(first * span, stop * span)
            kept = None if cols is None else cols[:, part]
            np.matmul(w2d, F.unfold(x[first:stop], k, k, s, p, out=kept), out=out[:, part])
            if self.use_bias:
                out[:, part] += self.params["b"][:, None]
        self._cols = cols
        self._x_shape = x.shape if training else None
        return out.reshape(self.out_channels, n, oh, ow).transpose(1, 0, 2, 3)

    def backward(
        self, grad: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        """Both flags as in :meth:`Dense.backward`.  ``dW`` is one GEMM over
        the whole batch (chunking its reduction would reorder the sums);
        the input gradient is multiplied and folded chunk by chunk."""
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
        n, c, h, w = self._x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        w2d = self.params["W"].reshape(o, -1)
        span = grad.shape[2] * grad.shape[3]
        xp = np.zeros((c, n, h + 2 * p, w + 2 * p), np.result_type(w2d, g))
        for first, stop in _sample_chunks(n, span, w2d.shape[1], self.out_channels):
            gcols = w2d.T @ g[:, first * span : stop * span]  # (C*k*k, chunk*OH*OW)
            F.fold(gcols, (stop - first, c, h, w), k, k, s, p, out=xp[:, first:stop])
        return xp[:, :, p : p + h, p : p + w].transpose(1, 0, 2, 3)

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

    caches = ("_argmax", "_x_shape")

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
        oh, ow = F.conv_out_hw(h, w, k, k, s, 0)
        arg = None
        if s != k:
            cols = F.unfold(x.reshape(n * c, 1, h, w), k, k, s, 0)  # (k*k, N*C*OH*OW)
            arg = cols.argmax(axis=0)
            out = cols[arg, np.arange(cols.shape[1])].reshape(n, c, oh, ow)
        else:
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
        # gx channel-major, the layout a Conv2D below hands its input and
        # reads its gradient in (no transposing copy there); grad follows (a
        # copy only if it is not channel-major already: the pooled grad is
        # 1/k**2 of gx) so the k*k products run in one order.
        gx = alloc((c, n, h, w), dtype=grad.dtype).transpose(1, 0, 2, 3)
        grad = np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
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
    caches = ("_mask",)

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

    caches = ("_cache",)

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

    caches = ("_x",)

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
