"""Policy and value networks for the FedDRL agent.

Per Table 1 of the paper: the policy network has 3 fully connected layers
of 256 units with LeakyReLU activations and outputs a flat vector of
``2K`` values (means and standard deviations of K Gaussians); the value
network has 2 hidden layers of 256 and outputs a scalar Q-value for a
``(state, action)`` pair.

The :class:`GaussianPolicyHead` encodes the paper's stability constraint
(eq. 6) ``sigma <= beta * mu`` *structurally*: means pass through tanh and
standard deviations are ``beta * sigmoid(raw) * |mu|``, so every action the
network can express satisfies the constraint (and the head is fully
differentiable, which the DDPG actor update requires).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Dense, Layer, LeakyReLU
from repro.nn.model import Sequential
from repro.nn.optim import BLOCK, blocks


class GaussianPolicyHead(Layer):
    """Map ``(batch, 2K)`` raw outputs to constrained ``(mu, sigma)`` pairs.

    Outputs are laid out ``[mu_1..mu_K, sigma_1..sigma_K]``:

    * ``mu = tanh(u)`` — bounded means keep softmax logits well-scaled.
    * ``sigma = beta * sigmoid(v) * |mu|`` — non-negative and at most
      ``beta * |mu|``, i.e. eq. (6) holds by construction.
    """

    caches = ("_cache",)

    def __init__(self, n_clients: int, beta: float = 0.5) -> None:
        super().__init__()
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1] (paper Section 3.3.3)")
        self.n_clients = n_clients
        self.beta = beta
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        k = self.n_clients
        if x.ndim != 2 or x.shape[1] != 2 * k:
            raise ValueError(f"expected (batch, {2 * k}) raw head input, got {x.shape}")
        mu = np.tanh(x[:, :k])
        s_unit = F.sigmoid(x[:, k:])
        sigma = self.beta * s_unit * np.abs(mu)
        if training:
            self._cache = (mu, s_unit)
        return np.concatenate([mu, sigma], axis=1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called without a training forward pass")
        mu, s_unit = self._cache
        k = self.n_clients
        g_mu, g_sigma = grad[:, :k], grad[:, k:]
        dtanh = 1.0 - mu**2
        # d sigma / d u = beta * s_unit * sign(mu) * tanh'(u)
        du = g_mu * dtanh + g_sigma * self.beta * s_unit * np.sign(mu) * dtanh
        # d sigma / d v = beta * |mu| * sigmoid'(v)
        dv = g_sigma * self.beta * np.abs(mu) * s_unit * (1.0 - s_unit)
        return np.concatenate([du, dv], axis=1)


def make_policy_network(
    state_dim: int,
    n_clients: int,
    rng: np.random.Generator,
    hidden: int = 256,
    n_hidden_layers: int = 2,
    beta: float = 0.5,
    dtype=None,
) -> Sequential:
    """The paper's pi-network: 3 FC layers (2 hidden + output) of 256 units,
    in ``dtype`` (default: the substrate's)."""
    if state_dim <= 0:
        raise ValueError("state_dim must be positive")
    layers: list[Layer] = []
    prev = state_dim
    for _ in range(n_hidden_layers):
        layers += [Dense(prev, hidden, rng), LeakyReLU()]
        prev = hidden
    layers.append(Dense(prev, 2 * n_clients, rng, weight_init="xavier_uniform"))
    layers.append(GaussianPolicyHead(n_clients, beta=beta))
    return Sequential(layers, dtype=dtype)


def make_value_network(
    state_dim: int,
    n_clients: int,
    rng: np.random.Generator,
    hidden: int = 256,
    n_hidden_layers: int = 2,
    dtype=None,
) -> Sequential:
    """The paper's Q-network: input ``state ++ action``, 2x256 hidden, scalar
    out, in ``dtype`` (default: the substrate's)."""
    if state_dim <= 0:
        raise ValueError("state_dim must be positive")
    in_dim = state_dim + 2 * n_clients
    layers: list[Layer] = []
    prev = in_dim
    for _ in range(n_hidden_layers):
        layers += [Dense(prev, hidden, rng), LeakyReLU()]
        prev = hidden
    layers.append(Dense(prev, 1, rng, weight_init="xavier_uniform"))
    return Sequential(layers, dtype=dtype)


def soft_update(target: Sequential, main: Sequential, rho: float) -> None:
    """``rho``-soft update: ``target <- (1 - rho) * target + rho * main``.

    Note on conventions: Algorithm 1 line 9 of the paper writes
    ``phi' <- rho * phi' + (1 - rho) * phi`` with ``rho = 0.02``, which read
    literally replaces 98% of the target each step — that contradicts the
    stated purpose of the target network ("more stable ... reference
    point").  We follow the standard DDPG reading where the small factor
    (0.02) is the fraction of the *main* network blended in per update.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("rho must be in (0, 1]")
    t_flat, m_flat = target.flat_state(), main.flat_state()
    if t_flat.size != m_flat.size or target.num_parameters() != main.num_parameters():
        raise ValueError("target and main networks have different structure")
    # One lerp over the whole value arena (params + buffers), a block at a
    # time through block-sized scratch; bit-identical to
    # ``t *= 1 - rho; t += rho * m`` per array.
    scratch = np.empty_like(t_flat[:BLOCK])
    for t, m in blocks(t_flat, m_flat):
        t *= 1.0 - rho
        t += np.multiply(m, rho, out=scratch[: t.size])


def hard_copy(target: Sequential, main: Sequential) -> None:
    """Exact copy of main into target (initialisation of target networks)."""
    soft_update(target, main, rho=1.0)
