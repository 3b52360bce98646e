"""FedDRL: the paper's DRL-based adaptive aggregation strategy.

Per communication round (Algorithm 2, lines 13–21):

1. Build the state ``s_{t+1}`` from the clients' ``(l_b, l_a, n_k)``.
2. If a transition is pending from round t, its reward is now computable —
   eq. (7) uses the *new* global model's inference losses, which are
   exactly this round's ``l_b`` values — so store ``(s_t, a_t, r_t,
   s_{t+1})``.
3. Query the policy for an action (with exploration noise), sample the
   impact factors ``alpha = softmax(N(mu, sigma))`` and aggregate.
4. After the aggregate, *start* the training pass (Algorithm 1's side
   thread; here a side process, :mod:`repro.drl.side`).  It runs while the
   next round's clients train and is *joined* where its result is read:
   at the top of the next ``impact_factors``, when the strategy is pickled
   (checkpoints, snapshots), by :attr:`FedDRL.agent`, and by
   :meth:`FedDRL.close`, which both engines call at the end of ``run``.

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
from repro.drl.side import SideTrainer
from repro.fl.client import ClientUpdate
from repro.fl.strategies.base import Strategy, build_state
from repro.runtime.seeding import STREAM_AGENT, STREAM_ALPHA, run_rng


class FedDRL(Strategy):
    """DRL-weighted aggregation (the paper's contribution)."""

    name = "feddrl"
    fixed_k = True  # the agent's state/action dims are built for exactly K
    #: The last *joined* training pass (None: no pass ran).
    last_train: TrainStats | None = None

    def __init__(
        self,
        clients_per_round: int,
        drl_config: DRLConfig | None = None,
        agent: DDPGAgent | None = None,
        seed: int = 0,
        explore: bool = True,
        online_training: bool = True,
    ) -> None:
        if clients_per_round <= 0:
            raise ValueError("clients_per_round must be positive")
        self.k = clients_per_round
        self.config = drl_config or DRLConfig()
        self.rng = run_rng(seed, STREAM_ALPHA)
        if agent is None:
            agent = DDPGAgent(
                state_dim=3 * clients_per_round,
                n_clients=clients_per_round,
                config=self.config,
                rng=run_rng(seed, STREAM_AGENT),
            )
        if agent.n_clients != clients_per_round:
            raise ValueError(
                "injected agent was built for a different participation level K"
            )
        self._agent = agent
        self._side = SideTrainer(agent)
        self.explore = explore
        self.online_training = online_training
        self._pending: tuple[np.ndarray, np.ndarray] | None = None
        self.reward_history: list[float] = []
        self.last_alphas: np.ndarray | None = None

    @property
    def agent(self) -> DDPGAgent:
        """The DDPG agent, with a running training pass joined first."""
        self._join()
        return self._agent

    def _join(self) -> None:
        if self._side.busy:
            self.last_train = self._side.join()

    def __getstate__(self) -> dict:
        self._join()
        state = self.__dict__.copy()
        del state["_side"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._side = SideTrainer(self._agent)

    # -- Strategy interface ------------------------------------------------
    def impact_factors(self, updates: list[ClientUpdate], round_idx: int) -> np.ndarray:
        self._join()
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
            reward = feddrl_reward(losses_before)
            self.reward_history.append(reward)
            self._side.observe(prev_state, prev_action, reward, state)

        action = self._agent.act(state, explore=self.explore)
        self._pending = (state, action)
        alphas = impact_factors_from_action(
            action, self.k, self.rng, beta=self.config.beta
        )
        self.last_alphas = alphas
        return alphas

    def on_round_end(self, updates: list[ClientUpdate], round_idx: int) -> None:
        """Start the round's training pass (Algorithm 1) and return: agent
        training stays out of ``impact_factors``, so the Fig. 9 split
        times policy inference there (plus any wait for the pass)."""
        self._join()
        if self.online_training:
            self._side.start()
        else:
            self.last_train = None

    def close(self) -> None:
        """Join the running pass and stop the side process (idempotent)."""
        self._join()
        self._side.close()

    def window_metrics(self) -> dict[str, float]:
        """Agent health: last reward, replay fill, noise, the impact
        factors' entropy and L1 distance from FedAvg's ``n_k / Σn``, and the
        last *joined* pass's losses and mean |TD error| — one window behind
        the pass this window started, so tracing never forces a join."""
        agent = self._agent
        metrics = {
            "sim.drl.replay_size": len(agent.buffer),
            "sim.drl.noise_scale": agent.noise_scale,
        }
        if self.reward_history:
            metrics["sim.drl.reward"] = self.reward_history[-1]
        if self.last_train is not None:
            metrics["sim.drl.critic_loss"] = self.last_train.critic_loss
            metrics["sim.drl.actor_q"] = self.last_train.actor_q
            metrics["sim.drl.td_error"] = self.last_train.td_error
        if self._pending is not None:
            alphas = self.last_alphas
            # The state's last K entries are this window's n_k / Σn.
            fedavg = self._pending[0][-self.k:].astype(float)
            positive = alphas[alphas > 0]
            metrics["sim.drl.alpha_entropy"] = float(-np.sum(positive * np.log(positive)))
            metrics["sim.drl.alpha_l1_fedavg"] = float(np.abs(alphas - fedavg).sum())
        return metrics
