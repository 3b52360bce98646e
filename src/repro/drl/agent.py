"""The DDPG agent of Section 3.4 (basic training, Algorithm 1).

The agent maintains four networks — main/target policy and main/target
value — plus an experience buffer.  One ``train`` call performs the
paper's "B times updating" loop: TD-prioritised batch sampling, a critic
regression step toward ``r + gamma * Q'(s', pi'(s'))``, a deterministic
policy-gradient ascent step on ``Q(s, pi(s))``, and ``rho``-soft target
updates.  In a FedDRL run the pass runs in a side process
(:class:`repro.drl.side.SideTrainer`) on a replica of this agent, overlapped
with the next round's client training; joining it copies the replica's
arrays back, so the agent ends each pass with the bits an inline ``train``
call would have left.

The agent computes in float32 (:data:`AGENT_DTYPE`) whatever the
substrate's dtype: its networks, Adam moments and replay columns.  States
and actions are cast once, on the way into the policy (``act``) and into
the replay buffer (``observe``); impact factors are sampled in float64
from the float32 action (:func:`repro.drl.action.impact_factors_from_action`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.drl.action import add_exploration_noise
from repro.drl.networks import hard_copy, make_policy_network, make_value_network, soft_update
from repro.drl.replay import Experience, ReplayBuffer
from repro.nn.optim import Adam

#: The agent's compute dtype on every substrate dtype (PyTorch's default
#: too).  Passed explicitly, not through the process-global default: the
#: harness pins that default to the run's substrate dtype before it builds
#: the strategy, and the agent must not follow it to float64.
AGENT_DTYPE = np.dtype(np.float32)


@dataclass
class DRLConfig:
    """Hyper-parameters of the FedDRL agent (paper Table 1 defaults)."""

    hidden: int = 256
    policy_lr: float = 1e-4
    value_lr: float = 1e-3
    buffer_capacity: int = 100_000
    gamma: float = 0.99
    rho: float = 0.02
    beta: float = 0.5
    batch_size: int = 32
    updates_per_round: int = 4
    min_buffer: int = 32
    noise_scale: float = 0.2
    noise_decay: float = 0.995
    noise_floor: float = 0.01

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.batch_size <= 0 or self.updates_per_round <= 0:
            raise ValueError("batch_size and updates_per_round must be positive")
        if self.min_buffer < 1:
            raise ValueError("min_buffer must be >= 1")


@dataclass
class TrainStats:
    """Diagnostics from one ``train`` call."""

    critic_loss: float
    actor_q: float
    updates: int
    buffer_size: int
    #: Mean |TD error| over the buffer at the start of the pass (the
    #: priorities it ranked by).
    td_error: float


class DDPGAgent:
    """Deep deterministic policy gradient agent over (state, action) vectors."""

    def __init__(
        self,
        state_dim: int,
        n_clients: int,
        config: DRLConfig,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.state_dim = state_dim
        self.n_clients = n_clients
        self.rng = rng
        c = self.config
        policy = dict(hidden=c.hidden, beta=c.beta, dtype=AGENT_DTYPE)
        value = dict(hidden=c.hidden, dtype=AGENT_DTYPE)
        self.policy_main = make_policy_network(state_dim, n_clients, self.rng, **policy)
        self.policy_target = make_policy_network(state_dim, n_clients, self.rng, **policy)
        self.value_main = make_value_network(state_dim, n_clients, self.rng, **value)
        self.value_target = make_value_network(state_dim, n_clients, self.rng, **value)
        hard_copy(self.policy_target, self.policy_main)
        hard_copy(self.value_target, self.value_main)
        self.policy_opt = Adam(self.policy_main, lr=c.policy_lr)
        self.value_opt = Adam(self.value_main, lr=c.value_lr)
        self.buffer = ReplayBuffer(c.buffer_capacity, dtype=AGENT_DTYPE)
        self.noise_scale = c.noise_scale
        self.total_updates = 0

    def __setstate__(self, state: dict) -> None:
        # The networks rebind their own layers on unpickling; the optimisers
        # pickle without their arena views, so point them at the networks.
        self.__dict__.update(state)
        self.policy_opt.bind(self.policy_main)
        self.value_opt.bind(self.value_main)

    # -- acting ---------------------------------------------------------------
    def act(self, state: np.ndarray, explore: bool = True) -> np.ndarray:
        """Compute the (possibly noise-perturbed) action for ``state``."""
        state = np.asarray(state, dtype=AGENT_DTYPE).ravel()
        if state.shape[0] != self.state_dim:
            raise ValueError(
                f"state has {state.shape[0]} entries, expected {self.state_dim}"
            )
        action = self.policy_main.forward(state[None, :], training=False)[0]
        if explore:
            action = add_exploration_noise(
                action, self.rng, self.noise_scale, self.config.beta, self.n_clients
            )
            self.noise_scale = max(
                self.config.noise_floor, self.noise_scale * self.config.noise_decay
            )
        return action

    def observe(
        self, state: np.ndarray, action: np.ndarray, reward: float, next_state: np.ndarray
    ) -> None:
        """Store one transition; the buffer's columns cast it to the agent's
        dtype."""
        self.buffer.add(Experience(state, action, reward, next_state))

    # -- learning ---------------------------------------------------------------
    def _q(self, net, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return net.forward(np.concatenate([states, actions], axis=1), training=False).ravel()

    def td_priorities(self) -> np.ndarray:
        """Algorithm 1 line 1: ``|r + gamma * Q(s', a) - Q(s, a)|`` per item."""
        s, a, r, s2 = self.buffer.snapshot()
        q_sa = self._q(self.value_main, s, a)
        q_s2a = self._q(self.value_main, s2, a)
        return np.abs(r + self.config.gamma * q_s2a - q_sa)

    def _critic_update(
        self, s: np.ndarray, a: np.ndarray, r: np.ndarray, s2: np.ndarray
    ) -> float:
        c = self.config
        a2 = self.policy_target.forward(s2, training=False)
        q_next = self._q(self.value_target, s2, a2)
        y = r + c.gamma * q_next
        q = self.value_main.forward(np.concatenate([s, a], axis=1), training=True).ravel()
        diff = q - y
        grad = (2.0 * diff / diff.shape[0])[:, None]
        self.value_main.backward(grad, input_grad=False)
        self.value_opt.step()
        return float(np.mean(diff**2))

    def _actor_update(self, s: np.ndarray) -> float:
        actions = self.policy_main.forward(s, training=True)
        q_in = np.concatenate([s, actions], axis=1)
        q = self.value_main.forward(q_in, training=True)
        # Gradient *ascent* on mean Q == descent on -mean Q.
        grad_out = np.full_like(q, -1.0 / q.shape[0])
        # The critic only provides dQ/da here; its own grads are not computed.
        grad_in = self.value_main.backward(grad_out, param_grads=False)
        self.policy_main.backward(grad_in[:, self.state_dim :], input_grad=False)
        self.policy_opt.step()
        return float(q.mean())

    def can_train(self) -> bool:
        """Whether the buffer is sufficient for a pass ("if D is
        sufficient": ``min_buffer`` transitions, and at least two)."""
        return len(self.buffer) >= max(self.config.min_buffer, 2)

    def train(self) -> TrainStats | None:
        """One training pass (Algorithm 1), the side process's unit of
        work; a no-op returning None until :meth:`can_train`."""
        c = self.config
        if not self.can_train():
            return None
        batch_size = min(c.batch_size, len(self.buffer))
        # One ranking per call: the priorities do not change between updates.
        priorities = self.td_priorities()
        probs = self.buffer.rank_probabilities(priorities)
        critic_losses, actor_qs = [], []
        for _ in range(c.updates_per_round):
            s, a, r, s2 = self.buffer.sample_ranked(batch_size, probs, self.rng)
            critic_losses.append(self._critic_update(s, a, r, s2))
            actor_qs.append(self._actor_update(s))
            soft_update(self.value_target, self.value_main, c.rho)
            soft_update(self.policy_target, self.policy_main, c.rho)
            self.total_updates += 1
        return TrainStats(
            critic_loss=float(np.mean(critic_losses)),
            actor_q=float(np.mean(actor_qs)),
            updates=c.updates_per_round,
            buffer_size=len(self.buffer),
            td_error=float(np.mean(priorities)),
        )

    # -- weight transfer ---------------------------------------------------------
    def network_weights(self) -> dict[str, np.ndarray]:
        """Flat weight vectors of all four networks (checkpointing / tests)."""
        return {
            "policy_main": self.policy_main.get_flat_weights(),
            "policy_target": self.policy_target.get_flat_weights(),
            "value_main": self.value_main.get_flat_weights(),
            "value_target": self.value_target.get_flat_weights(),
        }
