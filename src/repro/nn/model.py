"""Sequential model container backed by contiguous parameter arenas.

Federated aggregation operates on whole-model weight *vectors* (the
``w_k`` the clients upload), and every client touches the full parameter
set once per optimiser step and once per round for the weight transfer.
``Sequential`` therefore consolidates all layer state into contiguous
arenas at build time:

* a *value arena* holding every parameter followed by every buffer
  (BatchNorm running statistics), in deterministic layer-major order, and
* a *grad arena* holding the matching gradients for the parameter prefix.

Each ``layer.params[name]`` / ``layer.grads[name]`` / ``layer.buffers[name]``
array is rebound to a reshaped **view** into its arena, so the in-place
mutation contract of :mod:`repro.nn.layers` is preserved — layers keep
writing through the same array objects — while whole-model operations
collapse to single vectorised calls: ``set_flat_weights`` is one
``np.copyto``, ``get_flat_weights`` one copy, ``zero_grad`` one ``fill``,
and the optimisers in :mod:`repro.nn.optim` step the entire model with one
fused axpy over the arenas.  Arenas are allocated in the configured
compute dtype (:func:`repro.nn.dtypes.get_default_dtype`) unless the model
is built with an explicit ``dtype`` (the DDPG agent's float32 networks).

A training step is ``train_batch`` (forward, loss, ``backward``) then
``optimizer.step()``.  ``backward`` writes the grad arena — it overwrites
what the previous step left, it does not accumulate — so ``zero_grad`` is
API for callers that want zeros, not part of a step.

Two models built by the same factory share the same layout and can be
aggregated index-wise, exactly as before.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.dtypes import get_default_dtype, resolve_dtype
from repro.nn.layers import Conv2D, Dense, Flatten, Layer
from repro.nn.losses import Loss


def _head_index(layers: list[Layer]) -> int | None:
    """Index of the first ``Dense``/``Conv2D`` when only ``Flatten`` precedes it.

    That layer's input gradient is the model's own, which
    :meth:`Sequential.train_batch` never reads.
    """
    for i, layer in enumerate(layers):
        if isinstance(layer, (Dense, Conv2D)):
            return i
        if not isinstance(layer, Flatten):
            break
    return None


def _hollow(layer: Layer) -> Layer:
    """A shallow copy of ``layer`` whose array dicts hold shapes in place
    of arena views, and whose forward caches are empty."""
    hollow = object.__new__(type(layer))
    hollow.__dict__ = {
        **layer.__dict__,
        **{attr: {name: a.shape for name, a in getattr(layer, attr).items()}
           for attr in ("params", "grads", "buffers")},
        **dict.fromkeys(layer.caches),
    }
    return hollow


class Sequential:
    """A plain stack of layers executed in order."""

    def __init__(self, layers: list[Layer], dtype=None) -> None:
        if not layers:
            raise ValueError("Sequential needs at least one layer")
        self.layers = list(layers)
        self._head = _head_index(self.layers)
        self._alloc_arenas(get_default_dtype() if dtype is None else resolve_dtype(dtype))

    # -- arena construction --------------------------------------------------
    def _alloc_arenas(self, dtype: np.dtype) -> None:
        """Consolidate all layer state into contiguous arenas (see module doc).

        Layers allocate their own arrays at construction; this pass copies
        those values into the arenas and rebinds the layer dicts to views,
        casting into ``dtype``.
        """
        n_params = sum(p.size for layer in self.layers for p in layer.params.values())
        n_buffers = sum(b.size for layer in self.layers for b in layer.buffers.values())
        self._values = np.empty(n_params + n_buffers, dtype=dtype)
        self._grads = np.zeros(n_params, dtype=dtype)
        self._n_params = n_params
        self._bind_views(copy=True)

    def _bind_views(self, copy: bool) -> None:
        """Rebind every layer array to its arena view, in layer-major order
        (params, then buffers).  ``copy`` first writes the layer's values
        in; without it the layer dicts hold the shapes an unpickled model
        comes with (see :meth:`__getstate__`)."""
        offset = 0

        def bind(arrays: dict, name: str, arena: np.ndarray) -> None:
            old = arrays[name]
            shape = old.shape if copy else old
            view = arena[offset : offset + math.prod(shape)].reshape(shape)
            if copy:
                np.copyto(view, old)
            arrays[name] = view

        for layer in self.layers:
            for name in sorted(layer.params):
                bind(layer.params, name, self._values)
                bind(layer.grads, name, self._grads)
                offset += layer.params[name].size
        for layer in self.layers:
            for name in sorted(layer.buffers):
                bind(layer.buffers, name, self._values)
                offset += layer.buffers[name].size

    def __getstate__(self) -> dict:
        # The value arena is the one pickled copy of the values: the layers
        # go with their arrays' shapes in place of their arena views and
        # without their forward caches, and the grad arena not at all (a
        # step reads only what backward wrote).
        state = self.__dict__.copy()
        del state["_grads"]
        state["layers"] = [_hollow(layer) for layer in self.layers]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._grads = np.zeros(self._n_params, dtype=self._values.dtype)
        self._bind_views(copy=False)

    # -- arena views ---------------------------------------------------------
    @property
    def dtype(self) -> np.dtype:
        """The compute dtype the arenas were allocated in."""
        return self._values.dtype

    def flat_parameters(self) -> np.ndarray:
        """The parameter portion of the value arena (a live view)."""
        return self._values[: self._n_params]

    def flat_grads(self) -> np.ndarray:
        """The gradient arena (a live view aligned with :meth:`flat_parameters`)."""
        return self._grads

    def flat_state(self) -> np.ndarray:
        """The whole value arena — parameters then buffers (a live view)."""
        return self._values

    # -- forward / backward -------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(
        self, grad: np.ndarray, input_grad: bool = True, param_grads: bool = True
    ) -> np.ndarray | None:
        """Write every parameter grad; return the gradient w.r.t. the input.

        ``input_grad=False`` is for callers that only want the parameter
        grads: the first parameterised layer then skips its input-gradient
        product (and the Flatten layers in front of it are not visited), and
        the result is ``None``.  Models that do not start with
        ``Flatten* -> Dense | Conv2D`` run the full backward either way.

        ``param_grads=False`` is the opposite request (the DDPG actor step
        reading ``dQ/da`` off the critic): only the input gradient is
        computed and :meth:`flat_grads` keeps what it held.
        """
        if not param_grads:
            for layer in reversed(self.layers):
                if layer.params:
                    grad = layer.backward(grad, param_grads=False)
                else:
                    grad = layer.backward(grad)
            return grad
        if input_grad or self._head is None:
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
            return grad
        for layer in reversed(self.layers[self._head + 1 :]):
            grad = layer.backward(grad)
        self.layers[self._head].backward(grad, input_grad=False)
        return None

    def __call__(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        return self.forward(x, training=training)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions without retaining activations."""
        outs = [
            self.forward(x[i : i + batch_size], training=False).argmax(axis=1)
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(outs) if outs else np.empty(0, dtype=int)

    # -- parameter access ----------------------------------------------------
    def parameters(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(param, grad)`` pairs in deterministic layer-major order."""
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        for layer in self.layers:
            for name in sorted(layer.params):
                pairs.append((layer.params[name], layer.grads[name]))
        return pairs

    def param_arrays(self) -> list[np.ndarray]:
        """The parameter arrays only (e.g. the FedProx anchor)."""
        return [p for p, _ in self.parameters()]

    def buffer_arrays(self) -> list[np.ndarray]:
        """Non-learnable state arrays (BatchNorm running stats)."""
        bufs: list[np.ndarray] = []
        for layer in self.layers:
            for name in sorted(layer.buffers):
                bufs.append(layer.buffers[name])
        return bufs

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def num_parameters(self, include_buffers: bool = False) -> int:
        return int(self._values.size if include_buffers else self._n_params)

    @property
    def stochastic(self) -> bool:
        """True when some layer draws randomness at forward time (Dropout)."""
        return any(layer.stochastic for layer in self.layers)

    def seed_forward(self, rng: np.random.Generator | None) -> None:
        """Install (or, with ``None``, clear) a forward-randomness override.

        The runtime calls this with a ``(round, client)``-keyed generator
        before each client's local training, making stochastic layers
        (Dropout masks) — and hence backends running dropout models —
        bit-identical regardless of which worker or replica serves the
        client.  Passing ``None`` removes the override so stochastic
        layers fall back to their own constructor generators.
        """
        for layer in self.layers:
            if layer.stochastic:
                layer._forward_rng = rng

    # -- flat (de)serialisation ----------------------------------------------
    def _all_arrays(self, include_buffers: bool) -> list[np.ndarray]:
        arrays = self.param_arrays()
        if include_buffers:
            arrays += self.buffer_arrays()
        return arrays

    def get_flat_weights(self, include_buffers: bool = True) -> np.ndarray:
        """Copy all weights into one contiguous vector (a single arena copy)."""
        source = self._values if include_buffers else self.flat_parameters()
        return source.copy()

    def set_flat_weights(self, flat: np.ndarray, include_buffers: bool = True) -> None:
        """Load a vector produced by :meth:`get_flat_weights` (in place).

        One ``np.copyto`` over the value arena; every layer's arrays alias
        the arena, so this writes through them without any per-layer loop.
        Casts into the arena dtype, so a float64 checkpoint loads into a
        float32 model (and vice versa).
        """
        target = self._values if include_buffers else self.flat_parameters()
        flat = np.asarray(flat)
        if flat.size != target.size:
            raise ValueError(
                f"flat weight vector has {flat.size} entries, model expects {target.size}"
            )
        np.copyto(target, flat.reshape(-1))

    # -- training utilities ----------------------------------------------------
    def train_batch(self, loss: Loss, x: np.ndarray, y: np.ndarray) -> float:
        """One forward/backward pass; caller applies the optimiser step."""
        logits = self.forward(x, training=True)
        value = loss.forward(logits, y)
        self.backward(loss.backward(), input_grad=False)
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(l) for l in self.layers)
        return f"Sequential([{inner}])"
