"""Configurable compute dtype for the whole NumPy substrate.

Every allocation the substrate makes on a hot path — parameter arenas,
initial weights, one-hot targets, BatchNorm statistics, dataset arrays,
client upload vectors — asks this module for the current default dtype
instead of inheriting NumPy's float64 (the conv ``unfold`` / ``fold``
buffers take the dtype of the array they are given).  Running at float32
roughly halves memory bandwidth on the conv GEMMs and halves the
process-backend IPC payload; the default stays float64 so existing
results (and the tier-1 golden histories) are bit-identical.

The one exception is the FedDRL server's DDPG agent, which computes in
float32 under either setting: it builds its networks with an explicit
``Sequential(..., dtype=)`` (:data:`repro.drl.agent.AGENT_DTYPE`).

The dtype is process-global state, mirroring ``torch.set_default_dtype``:
models, optimisers and datasets capture it at *allocation* time, so set it
before building anything.  :class:`repro.runtime.executor.ProcessExecutor`
forwards the setting to its workers automatically.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

#: dtypes the substrate supports (names accepted by ``set_default_dtype``).
SUPPORTED_DTYPES = ("float32", "float64")

_DEFAULT = {"dtype": np.dtype(np.float64)}


def resolve_dtype(dtype) -> np.dtype:
    """Normalise a dtype-like (name, np.dtype, type) to a supported np.dtype."""
    resolved = np.dtype(dtype)
    if resolved.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; choose one of {SUPPORTED_DTYPES}"
        )
    return resolved


def set_default_dtype(dtype) -> None:
    """Set the substrate-wide compute dtype (``"float32"`` or ``"float64"``)."""
    _DEFAULT["dtype"] = resolve_dtype(dtype)


def get_default_dtype() -> np.dtype:
    """The dtype new substrate allocations use."""
    return _DEFAULT["dtype"]


@contextmanager
def default_dtype(dtype):
    """Temporarily switch the compute dtype (tests, nested experiments)."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)
