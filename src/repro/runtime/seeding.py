"""The one seeding rule: every random stream is a tag under the run seed.

Every generator is ``default_rng(SeedSequence(seed, spawn_key=key))``: the
experiment seed, and a key that ends in one of the ``STREAM_*`` tags below.
Only this module builds one (:mod:`repro.runtime.vecrng` computes the same
derivation column-wise), so it alone decides which numbers a consumer
reads.  Three key families, told apart by length:

* ``(tag,)`` — **run-level**, one generator per run (:func:`run_rng`):
  model init, dataset, partition, selection, dispatch, the DDPG agent,
  FedDRL's alpha sampler, pretraining workers' seeds, the clock profile.
* ``(client, tag)`` — a **static** per-client trait (:func:`client_static_rng`):
  link bandwidth, who is malicious, which of its samples are poisoned.
* ``(round, client, tag)`` — a **cell** (:func:`client_round_rng`): batch
  order, forward-time randomness (Dropout), latency jitter, fleet
  availability (keyed by time slot) / dropout / completeness (round or
  job), faults, wire rounding.

No two consumers share a key, and nothing shifts the seed (``seed + k``),
so runs under different seeds are independent.  A two-element run-level
key would alias a trait — ``(12, 9)`` is client 12's link bandwidth — hence
a pretraining worker's seed is *drawn* from ``STREAM_PRETRAIN``.  Cells make
every backend bit-identical: a pool may train a round's clients in any
order (or retry a faulted one), and each cell's stream is a pure function
of the cell.
"""

from __future__ import annotations

import numpy as np

STREAM_BATCHES = 0
STREAM_LATENCY = 1
STREAM_FORWARD = 2
STREAM_AVAILABILITY = 3
STREAM_DROPOUT = 4
STREAM_COMPLETENESS = 5
STREAM_ATTACK = 6
STREAM_MALICIOUS = 7  # static: a property of the experiment, not a round
STREAM_FAULTS = 8
STREAM_WIRE = 9  # cells: quantization rounding; static: link bandwidth
STREAM_MODEL_INIT = 10
STREAM_DATASET = 11
STREAM_PARTITION = 12
STREAM_SELECTION = 13
STREAM_DISPATCH = 14
STREAM_AGENT = 15
STREAM_ALPHA = 16
STREAM_PRETRAIN = 17
STREAM_CLOCK_PROFILE = 18


def run_rng(base_seed: int, stream: int) -> np.random.Generator:
    """The run's one generator for a run-level ``stream``, keyed ``(stream,)``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(stream,))
    )


def client_round_seed(
    base_seed: int, round_idx: int, client_id: int, stream: int = STREAM_BATCHES
) -> np.random.SeedSequence:
    """The SeedSequence for one ``(round, client)`` cell of the schedule.

    Equivalent to spawning ``SeedSequence(base_seed)`` down the key path
    ``round_idx -> client_id -> stream``, but constructed directly so it is
    a pure function of the cell.
    """
    return np.random.SeedSequence(
        entropy=base_seed, spawn_key=(round_idx, client_id, stream)
    )


def client_round_rng(
    base_seed: int, round_idx: int, client_id: int, stream: int = STREAM_BATCHES
) -> np.random.Generator:
    """A fresh generator for one cell; independent across cells and streams."""
    return np.random.default_rng(client_round_seed(base_seed, round_idx, client_id, stream))


def client_static_rng(
    base_seed: int, client_id: int, stream: int = STREAM_BATCHES
) -> np.random.Generator:
    """A per-client generator with no time coordinate.

    Used for static per-client traits (a device's link-quality factor, a
    malicious client's poisoned-sample mask).  The two-element spawn key
    can never collide with the three-element ``(round, client, stream)``
    cells.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy=base_seed, spawn_key=(client_id, stream))
    )
