"""``repro.drl`` — the DDPG-style deep-reinforcement-learning substrate.

Implements the agent of Section 3.4 of the paper:

* :mod:`repro.drl.networks` — policy and value networks (3x256 LeakyReLU
  MLPs per Table 1) with the custom Gaussian policy head enforcing the
  ``sigma <= beta * mu`` stability constraint (eq. 6).
* :mod:`repro.drl.replay` — experience buffer with temporal-difference
  prioritised sampling (Algorithm 1, lines 1–2).
* :mod:`repro.drl.agent` — the DDPG agent: main/target networks, critic
  regression, deterministic policy-gradient actor update, ``rho``-soft
  target updates.
* :mod:`repro.drl.side` — the agent's training passes in a forked side
  process, overlapped with the FL round and joined bit-identically.
* :mod:`repro.drl.action` — Gaussian sampling + softmax mapping from agent
  actions to client impact factors (eq. 5).
* :mod:`repro.drl.reward` — the two-objective reward (eq. 7).
* :mod:`repro.drl.two_stage` — offline training of the main agent from
  merged worker buffers (Section 3.4.2, Fig. 3b); the online workers are
  engine runs (``repro.harness.runner.pretrain_feddrl_agent``).
"""

from repro.drl.action import (
    deterministic_impact_factors,
    impact_factors_from_action,
    split_action,
)
from repro.drl.agent import DDPGAgent, DRLConfig
from repro.drl.networks import (
    GaussianPolicyHead,
    make_policy_network,
    make_value_network,
    soft_update,
)
from repro.drl.replay import Experience, ReplayBuffer
from repro.drl.reward import feddrl_reward, reward_components
from repro.drl.two_stage import train_offline

__all__ = [
    "DDPGAgent",
    "DRLConfig",
    "Experience",
    "ReplayBuffer",
    "GaussianPolicyHead",
    "make_policy_network",
    "make_value_network",
    "soft_update",
    "impact_factors_from_action",
    "deterministic_impact_factors",
    "split_action",
    "feddrl_reward",
    "reward_components",
    "train_offline",
]
