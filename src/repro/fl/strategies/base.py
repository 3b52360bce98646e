"""Strategy interface and the shared aggregation primitives.

A strategy answers one question per round: *what impact factor does each
participating client's model get?*  The actual weighted sum (eq. 4,
``w_{t+1} = W_t · alpha_t``) is identical for every method and lives in
:func:`combine_updates`, so the simulation can time "impact-factor
computation" (the DRL inference of Fig. 9) separately from "aggregation"
(the big matrix-vector product).
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import ClientUpdate
from repro.nn.dtypes import get_default_dtype


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _row_block(vectors: list[np.ndarray]) -> np.ndarray | None:
    """The ``(K, D)`` slice of one C-contiguous 2-D array whose
    consecutive rows, in order, *are* ``vectors`` — or ``None``.

    A row view's ``base`` is its matrix, so the test is exact and cheap:
    every vector is a contiguous 1-D view of the same matrix, with the
    same dtype, starting one row stride after the previous one.
    """
    matrix = vectors[0].base
    if not (
        isinstance(matrix, np.ndarray)
        and matrix.ndim == 2
        and matrix.flags.c_contiguous
    ):
        return None
    stride = matrix.strides[0]
    start = (_address(vectors[0]) - _address(matrix)) // stride
    for i, vector in enumerate(vectors):
        if (
            vector.base is not matrix
            or vector.dtype != matrix.dtype
            or vector.shape != matrix.shape[1:]
            or vector.strides != (matrix.itemsize,)
            or _address(vector) != _address(matrix) + (start + i) * stride
        ):
            return None
    return matrix[start:start + len(vectors)]


def combine_updates(
    updates: list[ClientUpdate], alphas: np.ndarray, normalize: bool = False
) -> np.ndarray:
    """Eq. (4): the convex combination of client weight vectors.

    Vectorised as a single ``alpha @ W`` product over the ``(K, D)``
    client weight matrix — this is the hot path the paper times in
    Fig. 9.  When the update vectors already are consecutive, in-order
    rows of one 2-D array (the process backend's result block), ``W`` is
    that slice, read in place; otherwise the vectors are stacked into a
    copy.  Both give the same bits: the product sees the same values in
    the same layout.

    Synchronous strategies produce alphas that already sum to 1, and the
    default enforces that.  Asynchronous aggregation composes impact
    factors with staleness-decay weights, which do not naturally sum to
    1; ``normalize=True`` accepts any non-negative vector with positive
    mass and normalizes it here, inside the timed hot path.
    """
    if not updates:
        raise ValueError(
            "cannot aggregate an empty update set — callers must skip the "
            "aggregation step when every update was dropped or rejected"
        )
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != (len(updates),):
        raise ValueError(
            f"alphas shape {alphas.shape} does not match {len(updates)} updates"
        )
    if np.any(alphas < -1e-12):
        raise ValueError("impact factors must be non-negative")
    total = alphas.sum()
    if normalize:
        if not total > 0:
            raise ValueError(
                f"impact factors must have positive total mass (got {total}) — "
                "normalizing would divide by zero; skip the aggregation instead"
            )
        alphas = alphas / total
    elif not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"impact factors must sum to 1 (got {total})")
    vectors = [u.weights for u in updates]
    weight_matrix = _row_block(vectors)
    if weight_matrix is None:
        weight_matrix = np.stack(vectors)  # (K, D)
    # Cast alphas into the weight dtype so a float32 substrate aggregates
    # in float32 (one GEMV, no float64 round trip).
    return alphas.astype(weight_matrix.dtype, copy=False) @ weight_matrix


def build_state(updates: list[ClientUpdate], normalize: bool = True) -> np.ndarray:
    """The FedDRL state (Section 3.3.2): ``[l_b..., l_a..., n...]`` (3K).

    Updates are ordered by position in ``updates`` (the simulation keeps a
    stable participating-client ordering within a round).  With
    ``normalize=True`` sample counts are expressed as fractions of the
    round total so the state scale is independent of dataset size.
    """
    if not updates:
        raise ValueError("cannot build a state from zero updates")
    dtype = get_default_dtype()  # states feed the DRL networks' GEMMs
    l_b = np.array([u.loss_before for u in updates], dtype=dtype)
    l_a = np.array([u.loss_after for u in updates], dtype=dtype)
    n = np.array([u.n_samples for u in updates], dtype=dtype)
    if normalize:
        n = n / n.sum()
    return np.concatenate([l_b, l_a, n])


class Strategy:
    """Base class for server aggregation strategies.

    Subclasses implement :meth:`impact_factors`; they may also override
    :meth:`client_kwargs` to alter client-side training (FedProx's proximal
    term), :meth:`on_round_end` for bookkeeping (FedDRL's agent training)
    and :meth:`close` to finish work that outlives a window.
    """

    name: str = "base"
    # True when the strategy only works at one fixed participation level K
    # (FedDRL's agent dimensions); the async engine will not hand such a
    # strategy a short final buffer.
    fixed_k: bool = False

    def impact_factors(self, updates: list[ClientUpdate], round_idx: int) -> np.ndarray:
        """Return the length-K impact-factor vector for this round."""
        raise NotImplementedError

    def client_kwargs(self) -> dict:
        """Extra keyword args passed to ``Client.local_train``."""
        return {}

    def on_round_end(self, updates: list[ClientUpdate], round_idx: int) -> None:
        """Hook invoked after the global model is updated; default no-op."""

    def close(self) -> None:
        """Finish and release background work (FedDRL's side process).
        Both engines call it at the end of ``run`` and in their own
        ``close``; idempotent, and the strategy stays usable.  Default
        no-op."""

    def window_metrics(self) -> dict[str, float]:
        """``sim.*`` gauges describing the strategy after this window; the
        engines record them only when tracing.  Default: none."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
