"""``repro.fl.robust`` — adversarial fleet: seeded attacks + robust aggregation.

The fleet simulator (:mod:`repro.fleet`) models *unreliable* clients;
this package models *malicious* ones and the server-side defenses that
survive them:

* :class:`AttackModel` marks a seeded subset of clients malicious and
  corrupts their data (label-flip, backdoor trigger injection) or their
  submitted updates (sign-flip, gradient scaling, IPM-style byzantine
  noise), all drawn from the dedicated ``STREAM_ATTACK`` /
  ``STREAM_MALICIOUS`` seed streams so attacked runs stay bit-identical
  across execution backends.
* :class:`RobustAggregator` replaces the impact-factor-weighted mean with
  coordinate-wise median, trimmed mean, Krum / multi-Krum, or norm
  clipping — slotting in where :func:`~repro.fl.strategies.combine_updates`
  runs today, in both the synchronous round loop and the async engine's
  buffer flush (composing with staleness decay and ``server_mix="delta"``).
"""

from repro.fl.robust.aggregators import (
    ROBUST_AGGREGATORS,
    AggregationInfo,
    RobustAggregator,
)
from repro.fl.robust.attacks import (
    ATTACK_MODELS,
    DATA_ATTACKS,
    TRIGGER_SIZE,
    TRIGGER_VALUE,
    UPDATE_ATTACKS,
    AttackModel,
    apply_trigger,
)

__all__ = [
    "ATTACK_MODELS",
    "DATA_ATTACKS",
    "ROBUST_AGGREGATORS",
    "TRIGGER_SIZE",
    "TRIGGER_VALUE",
    "UPDATE_ATTACKS",
    "AggregationInfo",
    "AttackModel",
    "RobustAggregator",
    "apply_trigger",
]
