"""FedDRL: the paper's DRL-based adaptive aggregation strategy.

Per communication round (Algorithm 2, lines 13–21):

1. Build the state ``s_{t+1}`` from the clients' ``(l_b, l_a, n_k)``.
2. If a transition is pending from round t, its reward is now computable —
   eq. (7) uses the *new* global model's inference losses, which are
   exactly this round's ``l_b`` values — so store ``(s_t, a_t, r_t,
   s_{t+1})`` and run the side-thread training pass (Algorithm 1).
3. Query the policy for an action (with exploration noise), sample the
   impact factors ``alpha = softmax(N(mu, sigma))`` and aggregate.

A pre-trained agent (two-stage pretraining, Section 3.4.2) can be
injected; in that case exploration can be disabled so the offline-trained
policy is used as-is.  A pretraining worker is this strategy with a fresh
agent, exploring and training online through an ordinary engine run.
"""

from __future__ import annotations

import numpy as np

from repro.drl.action import impact_factors_from_action
from repro.drl.agent import DDPGAgent, DRLConfig, TrainStats
from repro.drl.reward import feddrl_reward
from repro.fl.client import ClientUpdate
from repro.fl.strategies.base import Strategy, build_state


class FedDRL(Strategy):
    """DRL-weighted aggregation (the paper's contribution)."""

    name = "feddrl"
    fixed_k = True  # the agent's state/action dims are built for exactly K
    #: The last window's training pass (None: no pass ran).  A class-level
    #: default, so a strategy pickled before the attribute existed resumes.
    last_train: TrainStats | None = None

    def __init__(
        self,
        clients_per_round: int,
        drl_config: DRLConfig | None = None,
        agent: DDPGAgent | None = None,
        seed: int = 0,
        explore: bool = True,
        online_training: bool = True,
        fairness_weight: float = 1.0,
    ) -> None:
        if clients_per_round <= 0:
            raise ValueError("clients_per_round must be positive")
        self.k = clients_per_round
        self.config = drl_config or DRLConfig()
        self.rng = np.random.default_rng(seed)
        self.agent = agent if agent is not None else DDPGAgent(
            state_dim=3 * clients_per_round,
            n_clients=clients_per_round,
            config=self.config,
            rng=np.random.default_rng(seed + 1),
        )
        if self.agent.n_clients != clients_per_round:
            raise ValueError(
                "injected agent was built for a different participation level K"
            )
        self.explore = explore
        self.online_training = online_training
        self.fairness_weight = fairness_weight
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self.reward_history: list[float] = []
        self.last_alphas: np.ndarray | None = None

    # -- Strategy interface ------------------------------------------------
    def impact_factors(self, updates: list[ClientUpdate], round_idx: int) -> np.ndarray:
        if len(updates) != self.k:
            raise ValueError(
                f"FedDRL agent expects exactly K={self.k} updates, got {len(updates)}"
            )
        state = build_state(updates)

        # Complete the pending transition: this round's l_b values are the
        # new global model's losses, i.e. the reward signal for a_{t-1}.
        if self._pending is not None:
            prev_state, prev_action = self._pending
            losses_before = np.array([u.loss_before for u in updates])
            reward = feddrl_reward(losses_before, self.fairness_weight)
            self.reward_history.append(reward)
            self.agent.observe(prev_state, prev_action, reward, state)

        action = self.agent.act(state, explore=self.explore)
        self._pending = (state, action)
        alphas = impact_factors_from_action(
            action, self.k, self.rng, beta=self.config.beta
        )
        self.last_alphas = alphas
        return alphas

    def on_round_end(self, updates: list[ClientUpdate], round_idx: int) -> None:
        """The paper's *side thread* (Algorithm 1): agent training runs
        outside the impact-factor computation, so the Fig. 9 timing split
        measures pure policy inference in ``impact_factors``."""
        self.last_train = self.agent.train() if self.online_training else None

    def window_metrics(self) -> dict[str, float]:
        """Agent health: last reward, training losses, replay fill, noise."""
        metrics = {
            "sim.drl.replay_size": len(self.agent.buffer),
            "sim.drl.noise_scale": self.agent.noise_scale,
        }
        if self.reward_history:
            metrics["sim.drl.reward"] = self.reward_history[-1]
        if self.last_train is not None:
            metrics["sim.drl.critic_loss"] = self.last_train.critic_loss
            metrics["sim.drl.actor_q"] = self.last_train.actor_q
        return metrics
