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

Every model is a :class:`~repro.fleet.columnar.ColumnarAvailability`,
which advances the *whole fleet's* online column per slot with vectorized
draws; :func:`get_availability_model` builds one by CLI name.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.columnar import ColumnarAvailability

AVAILABILITY_MODELS = ("always", "bernoulli", "markov", "sinusoidal", "label_skew")


def get_availability_model(
    name: str,
    n_clients: int,
    seed: int,
    offline_fraction: float = 0.2,
    churn_rate: float = 0.5,
    period_slots: int = 24,
    labels: list[np.ndarray] | None = None,
) -> ColumnarAvailability:
    """Availability model by CLI name; ``label_skew`` needs one label
    array per client."""
    rates = None
    if name == "label_skew":
        if labels is None:
            raise ValueError("label_skew availability needs per-client labels")
        # p(c) = (1 - beta) + beta * min(labels_c) / max_label with
        # beta = 2 * offline_fraction (capped at 1), so the fleet-average
        # offline mass is roughly offline_fraction when minimum labels
        # spread uniformly: clients holding low labels are the flakier
        # ones, and availability bias compounds data bias.
        beta = min(1.0, 2.0 * offline_fraction)
        max_label = max((int(np.max(y)) for y in labels if len(y)), default=0)
        rates = np.asarray(
            [
                (1.0 - beta) + beta * (int(np.min(y)) / max_label if max_label else 1.0)
                for y in labels
            ],
            dtype=np.float64,
        )
    return ColumnarAvailability(
        name, n_clients, seed,
        offline_fraction=offline_fraction,
        churn_rate=churn_rate,
        period_slots=period_slots,
        rates=rates,
    )
