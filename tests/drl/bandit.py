"""A synthetic environment with a known optimum, for agent tests.

The FedDRL agent is trained against federated runs in ``src/``; these
tests need something cheaper whose best action is known in closed form.
"""

from __future__ import annotations

import numpy as np

from repro.drl.agent import DDPGAgent


class QuadraticBanditEnv:
    """The reward is ``-(||mu - target||^2 + mean(|sigma|))`` where
    ``target`` is a fixed vector in (-1, 1)^K: the agent maximises reward
    by steering its means toward ``target`` and its sigmas toward zero.
    The state is a noisy observation of ``target`` tiled to ``3K``
    entries, mirroring the FL state's shape.
    """

    def __init__(self, n_clients: int, seed: int = 0, noise: float = 0.05) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        self._k = n_clients
        self._rng = np.random.default_rng(seed)
        self.target = self._rng.uniform(-0.8, 0.8, size=n_clients)
        self.noise = noise

    @property
    def state_dim(self) -> int:
        return 3 * self._k

    @property
    def n_clients(self) -> int:
        return self._k

    def _observe(self) -> np.ndarray:
        obs = np.tile(self.target, 3)
        return obs + self._rng.normal(0.0, self.noise, size=obs.shape)

    def reset(self) -> np.ndarray:
        return self._observe()

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, dict]:
        action = np.asarray(action, dtype=float).ravel()
        if action.shape[0] != 2 * self._k:
            raise ValueError(f"action must have {2 * self._k} entries")
        mu, sigma = action[: self._k], action[self._k :]
        reward = -float(np.sum((mu - self.target) ** 2) + np.mean(np.abs(sigma)))
        return self._observe(), reward, {"distance": float(np.linalg.norm(mu - self.target))}


def rollout(
    env: QuadraticBanditEnv,
    agent: DDPGAgent,
    n_steps: int,
    train_online: bool = True,
) -> None:
    """Explore ``n_steps`` bandit steps, storing every transition in the
    agent's buffer (and training after each one)."""
    state = env.reset()
    for _ in range(n_steps):
        action = agent.act(state, explore=True)
        next_state, reward, _ = env.step(action)
        agent.observe(state, action, reward, next_state)
        if train_online:
            agent.train()
        state = next_state


def mean_greedy_reward(agent: DDPGAgent, env: QuadraticBanditEnv, n_steps: int) -> float:
    """Average reward of the agent's noise-free policy over ``n_steps``."""
    state = env.reset()
    total = 0.0
    for _ in range(n_steps):
        state, reward, _ = env.step(agent.act(state, explore=False))
        total += reward
    return total / n_steps
