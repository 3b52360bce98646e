"""Client-availability models: who is online at a given simulated time.

Simulated time is discretized into *slots* of fixed duration; a model
answers "is client ``c`` online during slot ``t``?" as a pure function of
``(seed, slot, client)`` through :mod:`repro.runtime.seeding`'s
``STREAM_AVAILABILITY`` cells, so a fleet's entire availability trace is
determined by the experiment seed alone — independent of query order,
execution backend, or worker count.

The model family follows FLGo's ``system_simulator`` availability axis:

* ``always`` — every client online in every slot (the pre-fleet behavior).
* ``bernoulli`` — i.i.d. per-slot coin flips at rate ``1 - offline_fraction``.
* ``markov`` — a two-state on/off chain per client whose stationary
  offline mass is ``offline_fraction`` and whose switching intensity is
  ``churn_rate``; clients have *sessions* (stay online/offline for
  stretches) rather than flickering independently each slot.
* ``sinusoidal`` — diurnal availability: the online probability follows a
  sine wave over the slot index, with a per-client phase offset so the
  fleet does not oscillate in lockstep (devices live in time zones).
* ``label_skew`` — availability correlated with the local label
  distribution, after FLGo's ``y_max_first``: clients whose smallest held
  label is low are offline more often, coupling the *who-is-online*
  process to the non-IID structure the paper studies.

Since the columnar fleet engine landed, these classes are thin views
over :class:`repro.fleet.columnar.ColumnarAvailability`: every model
holds a ``columnar`` engine that advances the *whole fleet's* online
column per slot with vectorized draws, and ``online(cid, slot)`` is one
cached-mask lookup.  The engine's draws are bit-identical to the
original per-cell derivation (``client_round_rng(seed, slot, cid,
STREAM_AVAILABILITY).random()``), which golden-hash tests pin, so the
refactor cannot change any experiment's trace.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fleet.columnar import ColumnarAvailability, ids_within
from repro.runtime.seeding import (
    STREAM_AVAILABILITY,
    client_round_rng,
)

AVAILABILITY_MODELS = ("always", "bernoulli", "markov", "sinusoidal", "label_skew")


class AvailabilityModel:
    """Maps ``(client_id, slot)`` to an online/offline state.

    Subclasses construct a :class:`ColumnarAvailability` engine and
    delegate; scalar queries read the engine's per-slot mask cache, and
    fleet-wide consumers (the simulator, selectors) use ``online_mask``
    / ``online_ids`` directly to stay vectorized end to end.
    """

    name: str = "base"

    def __init__(self, n_clients: int, seed: int) -> None:
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        self.n_clients = n_clients
        self.seed = seed
        self.columnar: ColumnarAvailability | None = None

    def _uniform(self, slot: int, client_id: int) -> float:
        """The cell's deterministic uniform draw in [0, 1)."""
        return float(
            client_round_rng(self.seed, slot, client_id, STREAM_AVAILABILITY).random()
        )

    def online(self, client_id: int, slot: int) -> bool:
        if slot < 0:
            raise ValueError("slot must be non-negative")
        assert self.columnar is not None
        return self.columnar.online(client_id, slot)

    def online_mask(self, slot: int) -> np.ndarray:
        """The whole fleet's online column for one slot (do not mutate).

        Subclasses that override ``online()`` without a columnar engine
        (``self.columnar is None``) fall back to a scalar loop, so exotic
        models stay correct — just not vectorized.
        """
        if slot < 0:
            raise ValueError("slot must be non-negative")
        if self.columnar is None:
            return np.fromiter(
                (self.online(cid, slot) for cid in range(self.n_clients)),
                dtype=bool,
                count=self.n_clients,
            )
        return self.columnar.mask(slot)

    def online_ids(self, slot: int, ids: np.ndarray | None = None) -> np.ndarray:
        """Sorted online ids for one slot, optionally within ``ids`` (an
        id array or a boolean column over the fleet)."""
        return ids_within(self.online_mask(slot), ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_clients={self.n_clients})"


class AlwaysOn(AvailabilityModel):
    """The ideal fleet: every device reachable in every slot."""

    name = "always"

    def __init__(self, n_clients: int, seed: int) -> None:
        super().__init__(n_clients, seed)
        self.columnar = ColumnarAvailability("always", n_clients, seed)

    def online(self, client_id: int, slot: int) -> bool:
        return True


class BernoulliAvailability(AvailabilityModel):
    """I.i.d. per-slot availability at rate ``1 - offline_fraction``."""

    name = "bernoulli"

    def __init__(self, n_clients: int, seed: int, offline_fraction: float = 0.2) -> None:
        super().__init__(n_clients, seed)
        if not 0.0 <= offline_fraction < 1.0:
            raise ValueError("offline_fraction must be in [0, 1)")
        self.offline_fraction = offline_fraction
        self.columnar = ColumnarAvailability(
            "bernoulli", n_clients, seed, offline_fraction=offline_fraction
        )


class MarkovAvailability(AvailabilityModel):
    """Two-state on/off churn with sessions, not per-slot coin flips.

    The chain's transition probabilities are parametrized by the
    stationary offline mass and a switching intensity::

        P(on -> off)  = churn_rate * offline_fraction
        P(off -> on)  = churn_rate * (1 - offline_fraction)

    so the long-run offline fraction is ``offline_fraction`` regardless of
    ``churn_rate``, and the mean session length scales as
    ``1 / churn_rate`` slots.  A ``churn_rate`` too high for either
    transition probability to stay <= 1 is scaled down as a whole (both
    probabilities shrink by the same factor), preserving the stationary
    distribution instead of silently distorting it.  Slot 0 draws from
    the stationary distribution.  The columnar engine steps the whole
    fleet's on/off column forward one slot at a time (with packed
    checkpoints bounding backward-query replay); each transition
    consumes the ``(slot, client)`` availability cell, so the trace is
    identical no matter which slots are queried first.
    """

    name = "markov"

    def __init__(
        self,
        n_clients: int,
        seed: int,
        offline_fraction: float = 0.2,
        churn_rate: float = 0.5,
    ) -> None:
        super().__init__(n_clients, seed)
        if not 0.0 <= offline_fraction < 1.0:
            raise ValueError("offline_fraction must be in [0, 1)")
        if churn_rate <= 0.0:
            raise ValueError("churn_rate must be positive")
        self.offline_fraction = offline_fraction
        self.columnar = ColumnarAvailability(
            "markov",
            n_clients,
            seed,
            offline_fraction=offline_fraction,
            churn_rate=churn_rate,
        )
        self.p_on_to_off = self.columnar.p_on_to_off
        self.p_off_to_on = self.columnar.p_off_to_on


class SinusoidalAvailability(AvailabilityModel):
    """Diurnal availability: online probability rides a sine wave.

    ``p(c, t) = (1 - offline_fraction) + A * sin(2*pi*t/period +
    phase_c)`` with amplitude ``A = min(offline_fraction,
    1 - offline_fraction)`` — the largest swing that keeps every ``p`` in
    ``[0, 1]`` without clipping, so the per-slot mean is *exactly*
    ``1 - offline_fraction`` over the whole legal parameter range.  Each
    client's phase is a static draw so the fleet's online mass undulates
    instead of jumping between all-on and all-off.
    """

    name = "sinusoidal"

    def __init__(
        self,
        n_clients: int,
        seed: int,
        offline_fraction: float = 0.2,
        period_slots: int = 24,
    ) -> None:
        super().__init__(n_clients, seed)
        if not 0.0 <= offline_fraction < 1.0:
            raise ValueError("offline_fraction must be in [0, 1)")
        if period_slots <= 1:
            raise ValueError("period_slots must be > 1")
        self.offline_fraction = offline_fraction
        self.columnar = ColumnarAvailability(
            "sinusoidal",
            n_clients,
            seed,
            offline_fraction=offline_fraction,
            period_slots=period_slots,
        )
        self.amplitude = self.columnar.amplitude
        self.period_slots = period_slots
        self._phases = self.columnar.phases

    def p_online(self, client_id: int, slot: int) -> float:
        wave = math.sin(2 * math.pi * slot / self.period_slots + self._phases[client_id])
        return (1.0 - self.offline_fraction) + self.amplitude * wave


class LabelSkewAvailability(AvailabilityModel):
    """Availability correlated with label skew (FLGo's ``y_max_first``).

    ``p(c) = (1 - beta) + beta * min(labels_c) / max_label`` with
    ``beta = 2 * offline_fraction`` (so the fleet-average offline mass is
    roughly ``offline_fraction`` when minimum labels spread uniformly):
    clients holding low labels are the flakier ones, making the online
    population's label distribution itself non-IID — availability bias
    compounds data bias.
    """

    name = "label_skew"

    def __init__(
        self,
        n_clients: int,
        seed: int,
        labels: list[np.ndarray],
        offline_fraction: float = 0.2,
    ) -> None:
        super().__init__(n_clients, seed)
        if len(labels) != n_clients:
            raise ValueError("need one label array per client")
        if not 0.0 <= offline_fraction < 1.0:
            raise ValueError("offline_fraction must be in [0, 1)")
        beta = min(1.0, 2.0 * offline_fraction)
        max_label = max((int(np.max(y)) for y in labels if len(y)), default=0)
        self.rates = [
            (1.0 - beta) + beta * (int(np.min(y)) / max_label if max_label else 1.0)
            for y in labels
        ]
        self.columnar = ColumnarAvailability(
            "label_skew", n_clients, seed, rates=np.asarray(self.rates, dtype=np.float64)
        )


def get_availability_model(
    name: str,
    n_clients: int,
    seed: int,
    offline_fraction: float = 0.2,
    churn_rate: float = 0.5,
    period_slots: int = 24,
    labels: list[np.ndarray] | None = None,
) -> AvailabilityModel:
    """Availability model by CLI name."""
    if name == "always":
        return AlwaysOn(n_clients, seed)
    if name == "bernoulli":
        return BernoulliAvailability(n_clients, seed, offline_fraction)
    if name == "markov":
        return MarkovAvailability(n_clients, seed, offline_fraction, churn_rate)
    if name == "sinusoidal":
        return SinusoidalAvailability(n_clients, seed, offline_fraction, period_slots)
    if name == "label_skew":
        if labels is None:
            raise ValueError("label_skew availability needs per-client labels")
        return LabelSkewAvailability(n_clients, seed, labels, offline_fraction)
    raise ValueError(f"availability must be one of {AVAILABILITY_MODELS}, got {name!r}")
