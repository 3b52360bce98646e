"""From agent actions to client impact factors (eq. 5 of the paper).

An *action* is a flat vector ``[mu_1..mu_K, sigma_1..sigma_K]`` describing
K Gaussian distributions.  The impact-factor vector is obtained by
sampling one value from each Gaussian and passing the K samples through a
softmax, so impact factors are positive and sum to one (they are the
weights of the convex model aggregation, eq. 4).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import softmax


def split_action(action: np.ndarray, n_clients: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat action into ``(mu, sigma)``, validating shape and signs."""
    action = np.asarray(action, dtype=float).ravel()
    if action.shape[0] != 2 * n_clients:
        raise ValueError(
            f"action has {action.shape[0]} entries, expected {2 * n_clients}"
        )
    mu, sigma = action[:n_clients], action[n_clients:]
    if np.any(sigma < 0):
        raise ValueError("sigma components must be non-negative")
    return mu, sigma


def apply_sigma_constraint(mu: np.ndarray, sigma: np.ndarray, beta: float) -> np.ndarray:
    """Clamp ``sigma`` to ``beta * |mu|`` (eq. 6).

    The policy head already enforces this structurally; the clamp is the
    safety net for externally supplied actions (e.g. exploration noise
    added to the raw action in Algorithm 2 line 14).
    """
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return np.minimum(sigma, beta * np.abs(mu))


def impact_factors_from_action(
    action: np.ndarray,
    n_clients: int,
    rng: np.random.Generator,
    beta: float | None = None,
) -> np.ndarray:
    """Sample impact factors ``alpha = softmax(N(mu, sigma))`` (eq. 5)."""
    mu, sigma = split_action(action, n_clients)
    if beta is not None:
        sigma = apply_sigma_constraint(mu, sigma, beta)
    z = rng.normal(mu, np.maximum(sigma, 0.0))
    return softmax(z)


def add_exploration_noise(
    action: np.ndarray,
    rng: np.random.Generator,
    scale: float,
    beta: float,
    n_clients: int,
) -> np.ndarray:
    """Gaussian exploration on the action, re-projected onto the valid set.

    Algorithm 2 line 14: ``(mu, sigma) <- pi(s) + eps, eps ~ N``.  After
    adding noise the result may violate ``sigma >= 0`` or eq. (6), so we
    clip sigma back into ``[0, beta * |mu|]``.
    """
    if scale < 0:
        raise ValueError("noise scale must be non-negative")
    action = np.asarray(action)
    if action.dtype.kind != "f":
        action = action.astype(float)
    # Draw in float64 (stable RNG stream) but add in the action's dtype so
    # a float32 policy's actions stay float32 through the replay buffer.
    noise = rng.normal(0.0, scale, size=action.shape).astype(action.dtype, copy=False)
    noisy = action + noise
    mu, sigma = noisy[:n_clients], noisy[n_clients:]
    mu = np.clip(mu, -1.0, 1.0)
    sigma = np.clip(sigma, 0.0, beta * np.abs(mu))
    return np.concatenate([mu, sigma])
