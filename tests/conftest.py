"""Shared fixtures and numerical-gradient helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def live_blocks():
    """``live_blocks()``: the names of the shared-memory blocks this test's
    code created that are still linked.

    Every block the program makes is adopted by a
    :class:`repro.data.shm.SharedMemoryPool`; the fixture records the names
    adopted during the test, so blocks of another run alive on the same
    host never enter a leak assert.  It patches through its own
    ``MonkeyPatch``, which a test's ``monkeypatch.undo()`` leaves in place.
    """
    import repro.data.shm as shm_mod

    created: list[str] = []
    adopt = shm_mod.SharedMemoryPool.adopt

    def recording_adopt(self, blocks):
        created.extend(block.name for block in blocks)
        return adopt(self, blocks)

    def linked(name: str) -> bool:
        try:
            block = shm_mod._attach_block(name)
        except FileNotFoundError:
            return False
        block.close()
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shm_mod.SharedMemoryPool, "adopt", recording_adopt)
        yield lambda: {name for name in created if linked(name)}


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. array ``x``.

    Mutates ``x`` in place during probing (restoring each entry), so ``f``
    may close over ``x`` — which is exactly how layer parameters work.
    """
    grad = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, tol: float = 1e-4):
    """Relative-error comparison robust to near-zero gradients."""
    # The absolute floor absorbs central-difference noise (~1e-9) on
    # gradients that are analytically zero.
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-5)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"max relative gradient error {rel.max():.2e}"
