"""Seeded attack models: a malicious subset of the federated fleet.

An :class:`AttackModel` marks a deterministic subset of clients malicious
and corrupts either their *data* (the client then trains honestly on
poisoned samples) or their *submitted update* (the client trains honestly
and the upload is perturbed in transit):

* ``label_flip`` — data attack: every malicious sample's label is rotated
  to the next class, so the poisoned shards teach a consistent wrong
  class mapping (DGMBENCH's directed flip, stronger than a random one).
* ``backdoor`` — data attack: a bright trigger patch is stamped onto a
  fraction of each malicious shard with all trigger samples relabelled to
  a single target class; attack success is measured on a *backdoor test
  set* (every non-target test sample, triggered and relabelled).  With
  ``scale > 1`` the malicious upload is additionally boosted by the
  model-replacement factor (Bagdasaryan et al.) — data poisoning alone
  barely moves a 20%-minority average.
* ``sign_flip`` — update attack: the malicious delta is negated and
  amplified, ``w ← g − scale·(w − g)`` (classic byzantine sign flip).
* ``scale`` — update attack: the delta is amplified without flipping,
  ``w ← g + scale·(w − g)`` (gradient-scaling / model replacement).

Every stochastic choice is seeded: *who* is malicious comes from the
static :data:`~repro.runtime.seeding.STREAM_MALICIOUS` stream, per-sample
poisoning masks from the static, per-client
:data:`~repro.runtime.seeding.STREAM_ATTACK` stream — so an attacked run's
entire behavior is a pure function of the experiment seed and therefore
bit-identical across the serial / thread / process execution backends.

Update attacks operate on the flat-arena :class:`ClientUpdate` relative
to the weights the job was dispatched against, so they act identically
under weight-form aggregation and FedBuff's delta form.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.fl.client import ClientUpdate
from repro.runtime.seeding import (
    STREAM_ATTACK,
    STREAM_MALICIOUS,
    client_static_rng,
)

ATTACK_MODELS = ("label_flip", "backdoor", "sign_flip", "scale")
DATA_ATTACKS = ("label_flip", "backdoor")
UPDATE_ATTACKS = ("sign_flip", "scale")

# Backdoor geometry: a square patch of this side length (capped at the
# image size) stamped at this out-of-distribution pixel value in the
# top-left corner of every channel.  Synthetic prototypes live within a
# few noise standard deviations of zero, so 3.0 is salient but finite.
# The default target is class 1, not 0: the synthetic class-0 prototype
# happens to be bright in the same corner, which gives a *clean* model a
# ~11% base rate on a class-0 backdoor task (class 1 measures 0%), and a
# nonzero base rate makes attack-success numbers unreadable.  The default
# poison fraction is 1.0 — every malicious sample triggered and
# relabelled — which is the model-replacement regime; fractional
# poisoning (stealthier, weaker) remains available per instance.
TRIGGER_SIZE = 3
TRIGGER_VALUE = 3.0


class AttackModel:
    """One adversarial scenario over a fixed client population."""

    def __init__(
        self,
        name: str,
        n_clients: int,
        malicious_fraction: float,
        seed: int,
        scale: float = 1.0,
        backdoor_target: int = 1,
        poison_fraction: float = 1.0,
    ) -> None:
        if name not in ATTACK_MODELS:
            raise ValueError(f"attack must be one of {ATTACK_MODELS}, got {name!r}")
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        if not 0.0 < malicious_fraction < 1.0:
            raise ValueError("malicious_fraction must be in (0, 1)")
        if scale <= 0:
            raise ValueError("scale must be positive")
        if backdoor_target < 0:
            raise ValueError("backdoor_target must be a valid class index")
        if not 0.0 < poison_fraction <= 1.0:
            raise ValueError("poison_fraction must be in (0, 1]")
        self.name = name
        self.n_clients = n_clients
        self.malicious_fraction = malicious_fraction
        self.seed = seed
        self.scale = scale
        self.backdoor_target = backdoor_target
        self.poison_fraction = poison_fraction
        # Who is malicious: one fleet-wide draw from the static malicious
        # stream (client coordinate 0 is the conventional carrier — no
        # other consumer derives from STREAM_MALICIOUS).  At least one
        # client is compromised whenever an attack is configured.
        n_malicious = max(1, int(malicious_fraction * n_clients))
        rng = client_static_rng(seed, 0, STREAM_MALICIOUS)
        ids = rng.choice(n_clients, size=n_malicious, replace=False)
        self.malicious = frozenset(int(c) for c in ids)

    @property
    def is_data_attack(self) -> bool:
        return self.name in DATA_ATTACKS

    def is_malicious(self, client_id: int) -> bool:
        return client_id in self.malicious

    # -- data poisoning ------------------------------------------------------
    def poison_dataset(self, client_id: int, dataset: ArrayDataset) -> ArrayDataset:
        """The poisoned view of one malicious client's shard — what the
        client pool (:mod:`repro.fleet.scale`) trains that client on.

        Honest clients' shards pass through untouched; update attacks
        leave all data untouched.  The result depends only on the seed,
        the client id and the shard, so a pool may rebuild it any time.
        """
        if not self.is_malicious(client_id) or not self.is_data_attack:
            return dataset
        if self.name == "label_flip":
            # Directed flip: consistently teach class c -> c+1.
            flipped = (dataset.y + 1) % dataset.num_classes
            return ArrayDataset(dataset.x, flipped, dataset.num_classes)
        if self.backdoor_target >= dataset.num_classes:
            raise ValueError(
                f"backdoor target {self.backdoor_target} is not a class of "
                f"a {dataset.num_classes}-way dataset"
            )
        rng = client_static_rng(self.seed, client_id, STREAM_ATTACK)
        n = len(dataset)
        n_poison = max(1, int(round(self.poison_fraction * n)))
        chosen = rng.choice(n, size=n_poison, replace=False)
        x = dataset.x.copy()
        y = dataset.y.copy()
        x[chosen] = apply_trigger(x[chosen])
        y[chosen] = self.backdoor_target
        return ArrayDataset(x, y, dataset.num_classes)

    def backdoor_test_set(self, test_set: ArrayDataset) -> ArrayDataset | None:
        """The attack-task test set: every non-target sample, triggered and
        relabelled to the target.  Accuracy on it *is* the attack success
        rate.  None for attacks with no backdoor task.
        """
        if self.name != "backdoor":
            return None
        keep = test_set.y != self.backdoor_target
        if not np.any(keep):
            raise ValueError("test set has no samples outside the target class")
        x = apply_trigger(test_set.x[keep].copy())
        y = np.full(x.shape[0], self.backdoor_target, dtype=test_set.y.dtype)
        return ArrayDataset(x, y, test_set.num_classes)

    # -- update perturbation -------------------------------------------------
    def perturb(self, update: ClientUpdate, reference: np.ndarray) -> ClientUpdate:
        """The update the server actually receives from this client.

        ``reference`` is the global weights the client trained from — the
        perturbation rewrites the client's *delta*, so it bites
        identically under weight-form and delta-form aggregation.  Honest
        clients' updates pass through untouched, as do data attacks at
        ``scale == 1`` (the poison is already in the weights).
        """
        if not self.is_malicious(update.client_id):
            return update
        delta = update.weights - reference
        if self.name == "sign_flip":
            poisoned = reference - self.scale * delta
        elif self.name == "scale" or self.scale != 1.0:
            # Data attacks at scale != 1 get the same model-replacement boost.
            poisoned = reference + self.scale * delta
        else:
            return update
        return replace(update, weights=poisoned.astype(update.weights.dtype, copy=False))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AttackModel(name={self.name!r}, malicious={sorted(self.malicious)}, "
            f"scale={self.scale})"
        )


def apply_trigger(
    x: np.ndarray, size: int = TRIGGER_SIZE, value: float = TRIGGER_VALUE
) -> np.ndarray:
    """Stamp the backdoor trigger patch onto a batch of NCHW images in
    place (callers pass copies) and return it."""
    if x.ndim < 2:
        raise ValueError("expected image arrays with at least 2 spatial dims")
    side = min(size, x.shape[-1], x.shape[-2])
    x[..., :side, :side] = value
    return x
