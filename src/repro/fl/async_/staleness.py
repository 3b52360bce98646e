"""Staleness-decay weightings for asynchronous aggregation.

An update's *staleness* ``s`` is the number of aggregations the global
model went through between the job's dispatch and its arrival: a fast
device usually arrives at ``s = 0``, a straggler may arrive many versions
late.  Each policy maps ``s`` to a multiplicative impact-factor decay in
``(0, 1]``; the server composes it with the strategy's own impact factors
and lets :func:`repro.fl.strategies.combine_updates` renormalize.

The shapes follow the async-FL literature (FedAsync's constant /
polynomial / hinge family, reused by FedBuff): ``constant`` ignores
staleness, ``polynomial`` decays smoothly as ``(1 + s)^-0.5``, and
``hinge`` keeps full weight up to ``b = 4`` versions late, then decays
hyperbolically as ``1 / (1 + a·(s - b))`` with ``a = 1``.
"""

from __future__ import annotations

STALENESS_POLICIES = ("constant", "polynomial", "hinge")

POLYNOMIAL_EXPONENT = 0.5
HINGE_A = 1.0
HINGE_B = 4


def staleness_factor(policy: str, s: int) -> float:
    """The decay ``policy`` applies to an update ``s`` versions late."""
    if s < 0:
        raise ValueError("staleness cannot be negative")
    if policy == "constant":
        return 1.0
    if policy == "polynomial":
        return float((1.0 + s) ** -POLYNOMIAL_EXPONENT)
    if policy == "hinge":
        return 1.0 if s <= HINGE_B else float(1.0 / (1.0 + HINGE_A * (s - HINGE_B)))
    raise ValueError(f"staleness policy must be one of {STALENESS_POLICIES}, got {policy!r}")
