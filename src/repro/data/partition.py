"""Non-IID partitioners: how the global dataset is split across clients.

Implements every scheme used in the paper's evaluation:

* ``PA`` — Pareto label-skew: each client owns a fixed number of labels and
  the per-label sample counts across owners follow a power law
  (Table 2, after Li et al. 2020).
* ``CE`` — Clustered-Equal (the paper's new cluster-skew): clients are
  arranged into clusters, a *main* cluster holds a fraction ``delta`` of
  all clients, labels are partitioned across clusters, every client owns
  two labels of its cluster, equal samples per client.
* ``CN`` — Clustered-Non-Equal: like CE but with power-law quantity skew.
* ``EQUAL`` / ``NONEQUAL`` — FedAvg's shard-based label-size imbalance
  (Section 5.1): sort by label, cut into ``2N`` (resp. ``10N``) shards,
  deal 2 shards (resp. a random 6–14 shards) to each client.
* ``IID`` — uniform control.

A partition is a list of ``n_clients`` integer index arrays into the
training set.  Partitions are always *disjoint*; they may leave a few
samples unassigned (shard remainders), which
:func:`validate_partition` quantifies.
"""

from __future__ import annotations

import numpy as np


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------

def _check_args(labels: np.ndarray, n_clients: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    if labels.shape[0] < n_clients:
        raise ValueError("cannot give every client at least one sample")
    return labels


def _split_by_weights(
    indices: np.ndarray, weights: np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    """Split ``indices`` into ``len(weights)`` disjoint parts ∝ ``weights``.

    Every part with positive weight receives at least one index when
    possible.  The split is exact: parts concatenate back to a permutation
    of ``indices``.
    """
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    n = indices.shape[0]
    perm = rng.permutation(indices)
    # Largest-remainder apportionment of n among the weights.
    quota = weights / weights.sum() * n
    counts = np.floor(quota).astype(int)
    remainder = n - counts.sum()
    if remainder > 0:
        order = np.argsort(-(quota - counts))
        counts[order[:remainder]] += 1
    bounds = np.cumsum(counts)[:-1]
    return np.split(perm, bounds)


def _power_law_weights(
    n: int, rng: np.random.Generator, alpha: float = 1.5, floor: float = 0.05
) -> np.ndarray:
    """Pareto-distributed positive weights with a floor to avoid empty parts."""
    if n <= 0:
        raise ValueError("n must be positive")
    w = rng.pareto(alpha, size=n) + floor
    return w / w.sum()


def _apportion(total: int, weights: np.ndarray, minimum: int = 1) -> np.ndarray:
    """Split ``total`` integer units ∝ ``weights``, each part >= ``minimum``.

    Largest-remainder apportionment followed by a repair pass that tops up
    parts below the minimum by taking from the largest parts.
    """
    weights = np.asarray(weights, dtype=float)
    if total < minimum * weights.shape[0]:
        raise ValueError("total too small to give every part the minimum")
    quota = weights / weights.sum() * total
    counts = np.floor(quota).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(quota - counts))
        counts[order[:remainder]] += 1
    while counts.min() < minimum:
        counts[np.argmax(counts)] -= 1
        counts[np.argmin(counts)] += 1
    return counts


def _assign_labels_round_robin(
    label_pool: np.ndarray,
    n_clients: int,
    labels_per_client: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Give each client ``labels_per_client`` labels drawn cyclically from a
    shuffled pool, so all labels are covered whenever there is capacity."""
    pool = rng.permutation(label_pool)
    out: list[np.ndarray] = []
    cursor = 0
    for _ in range(n_clients):
        chosen: list[int] = []
        while len(chosen) < labels_per_client:
            lab = int(pool[cursor % pool.shape[0]])
            cursor += 1
            if lab not in chosen:
                chosen.append(lab)
            elif pool.shape[0] <= labels_per_client:
                # Pool smaller than requested labels: accept duplicates' break.
                break
        out.append(np.array(chosen, dtype=int))
    return out


# --------------------------------------------------------------------------
# partitioners
# --------------------------------------------------------------------------

def iid_partition(
    labels: np.ndarray, n_clients: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Uniformly random equal-size split (the IID control)."""
    labels = _check_args(labels, n_clients)
    perm = rng.permutation(labels.shape[0])
    if perm.shape[0] % n_clients == 0:
        return list(np.sort(perm.reshape(n_clients, -1), axis=1))
    return [np.sort(part) for part in np.array_split(perm, n_clients)]


def pareto_partition(
    labels: np.ndarray,
    n_clients: int,
    rng: np.random.Generator,
    labels_per_client: int = 2,
    alpha: float = 1.5,
) -> list[np.ndarray]:
    """PA: label-size imbalance with power-law sample counts.

    Each client owns ``labels_per_client`` labels (2 for MNIST-scale,
    20 for CIFAR-100 in the paper); samples of each label are divided among
    its owners with Pareto(``alpha``) weights.
    """
    labels = _check_args(labels, n_clients)
    num_classes = int(labels.max()) + 1
    if labels_per_client <= 0:
        raise ValueError("labels_per_client must be positive")
    ownership = _assign_labels_round_robin(
        np.arange(num_classes), n_clients, min(labels_per_client, num_classes), rng
    )
    owners_of: dict[int, list[int]] = {c: [] for c in range(num_classes)}
    for client, labs in enumerate(ownership):
        for lab in labs:
            owners_of[int(lab)].append(client)

    # Client-level power-law factors: a client's share of *every* label it
    # owns is proportional to its factor, so the per-client totals follow
    # the power law (per-label independent weights would average out).
    client_factor = _power_law_weights(n_clients, rng, alpha=alpha) * n_clients

    parts: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for lab in range(num_classes):
        idx = np.flatnonzero(labels == lab)
        owners = owners_of[lab]
        if idx.size == 0:
            continue
        if not owners:
            # A label no client owns (possible when capacity < classes):
            # hand it to a random client so no data is silently dropped.
            owners = [int(rng.integers(0, n_clients))]
        weights = np.array([client_factor[o] for o in owners])
        for owner, chunk in zip(owners, _split_by_weights(idx, weights, rng)):
            if chunk.size:
                parts[owner].append(chunk)
    return _finalize(parts, labels.shape[0], n_clients, rng)


def clustered_equal_partition(
    labels: np.ndarray,
    n_clients: int,
    rng: np.random.Generator,
    delta: float = 0.6,
    n_clusters: int = 3,
    labels_per_client: int = 2,
) -> list[np.ndarray]:
    """CE: the paper's cluster-skew with equal per-client quantity.

    ``delta`` is the non-IID level: the fraction of clients in the *main*
    cluster.  Labels are partitioned across clusters, so the main cluster's
    labels are learned by many more clients — the redundancy FedDRL's agent
    must learn to down-weight.
    """
    return _clustered(
        labels, n_clients, rng, delta, n_clusters, labels_per_client, equal=True
    )


def clustered_nonequal_partition(
    labels: np.ndarray,
    n_clients: int,
    rng: np.random.Generator,
    delta: float = 0.6,
    n_clusters: int = 3,
    labels_per_client: int = 2,
    alpha: float = 1.5,
) -> list[np.ndarray]:
    """CN: cluster-skew plus power-law quantity skew."""
    return _clustered(
        labels, n_clients, rng, delta, n_clusters, labels_per_client,
        equal=False, alpha=alpha,
    )


def cluster_assignment(
    n_clients: int, delta: float, n_clusters: int
) -> np.ndarray:
    """Deterministic client→cluster map: cluster 0 is the main group with
    ``round(delta * n_clients)`` clients; the rest are spread evenly."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0, 1]")
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    main = min(n_clients, max(1, int(round(delta * n_clients))))
    assignment = np.zeros(n_clients, dtype=int)
    rest = n_clients - main
    if n_clusters > 1 and rest > 0:
        assignment[main:] = 1 + (np.arange(rest) % (n_clusters - 1))
    return assignment


def _clustered(
    labels: np.ndarray,
    n_clients: int,
    rng: np.random.Generator,
    delta: float,
    n_clusters: int,
    labels_per_client: int,
    equal: bool,
    alpha: float = 1.5,
) -> list[np.ndarray]:
    labels = _check_args(labels, n_clients)
    num_classes = int(labels.max()) + 1
    if n_clusters > num_classes:
        raise ValueError("more clusters than labels")
    assignment = cluster_assignment(n_clients, delta, n_clusters)
    # Partition the label space across clusters, sized proportionally to
    # cluster membership: the main cluster's labels are globally more
    # frequent, matching the paper's observation that the global label
    # distribution is non-uniform under cluster skew (Section 2.2.1).
    members_per_cluster = np.bincount(assignment, minlength=n_clusters).astype(float)
    group_sizes = _apportion(num_classes, np.maximum(members_per_cluster, 1e-9))
    shuffled = rng.permutation(num_classes)
    bounds = np.cumsum(group_sizes)[:-1]
    label_groups = np.split(shuffled, bounds)

    # Per-cluster label ownership.
    ownership: list[np.ndarray] = [np.empty(0, dtype=int)] * n_clients
    for g in range(n_clusters):
        members = np.flatnonzero(assignment == g)
        if members.size == 0:
            continue
        group_labels = label_groups[g]
        per_client = min(labels_per_client, group_labels.shape[0])
        assigned = _assign_labels_round_robin(group_labels, members.size, per_client, rng)
        for member, labs in zip(members, assigned):
            ownership[member] = labs

    owners_of: dict[int, list[int]] = {c: [] for c in range(num_classes)}
    for client, labs in enumerate(ownership):
        for lab in labs:
            owners_of[int(lab)].append(client)

    # Quantity weights: equal (CE) or client-level power law (CN).
    client_factor = (
        np.ones(n_clients)
        if equal
        else _power_law_weights(n_clients, rng, alpha=alpha) * n_clients
    )

    parts: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for lab in range(num_classes):
        idx = np.flatnonzero(labels == lab)
        owners = owners_of[lab]
        if idx.size == 0:
            continue
        if not owners:
            owners = [int(rng.integers(0, n_clients))]
        weights = np.array([client_factor[o] for o in owners], dtype=float)
        for owner, chunk in zip(owners, _split_by_weights(idx, weights, rng)):
            if chunk.size:
                parts[owner].append(chunk)
    out = _finalize(parts, labels.shape[0], n_clients, rng)
    if equal:
        # CE fixes the per-client quantity: trim every client to the
        # smallest client's size (the surplus simply stays off-device,
        # as in the paper's construction of equal-sized clients).
        target = min(p.size for p in out)
        out = [
            np.sort(rng.choice(p, size=target, replace=False)) if p.size > target else p
            for p in out
        ]
    return out


# Shards per client of the paper's shard splits (2N and 10N shards).
SHARDS_PER_CLIENT = {"EQUAL": 2, "NONEQUAL": 10}


def check_shards_fit(n_samples: int, n_clients: int, shards_per_client: int) -> None:
    """A shard split cuts the training set into ``shards_per_client * N``
    non-empty shards, so it needs at least one sample per shard."""
    n_shards = shards_per_client * n_clients
    if n_samples < n_shards:
        raise ValueError(f"{n_clients} clients x {shards_per_client} shards need at "
                         f"least {n_shards} training samples, got {n_samples}")


def shards_equal_partition(
    labels: np.ndarray, n_clients: int, rng: np.random.Generator,
    shards_per_client: int = SHARDS_PER_CLIENT["EQUAL"],
) -> list[np.ndarray]:
    """FedAvg's Equal split: sort by label, cut into ``shards_per_client*N``
    shards, deal ``shards_per_client`` shards to each client."""
    labels = _check_args(labels, n_clients)
    check_shards_fit(labels.shape[0], n_clients, shards_per_client)
    n_shards = shards_per_client * n_clients
    order = np.argsort(labels, kind="stable")
    shards = np.array_split(order, n_shards)
    shard_ids = rng.permutation(n_shards)
    parts = []
    for c in range(n_clients):
        mine = shard_ids[c * shards_per_client : (c + 1) * shards_per_client]
        parts.append(np.sort(np.concatenate([shards[s] for s in mine])))
    return parts


def shards_nonequal_partition(
    labels: np.ndarray,
    n_clients: int,
    rng: np.random.Generator,
    shards_factor: int = SHARDS_PER_CLIENT["NONEQUAL"],
    min_shards: int = 6,
    max_shards: int = 14,
) -> list[np.ndarray]:
    """FedAvg's Non-equal split: ``shards_factor*N`` shards, each client a
    random number of shards in ``[min_shards, max_shards]``.

    Random counts are rebalanced (within the bounds) so that they sum to
    exactly the number of shards — the paper's construction implicitly
    requires this for all shards to be dealt.
    """
    labels = _check_args(labels, n_clients)
    if not 1 <= min_shards <= max_shards:
        raise ValueError("need 1 <= min_shards <= max_shards")
    n_shards = shards_factor * n_clients
    if not n_clients * min_shards <= n_shards <= n_clients * max_shards:
        raise ValueError("shard bounds cannot sum to the total shard count")
    check_shards_fit(labels.shape[0], n_clients, shards_factor)

    counts = rng.integers(min_shards, max_shards + 1, size=n_clients)
    # Rebalance to an exact sum while respecting the bounds.
    diff = int(counts.sum()) - n_shards
    while diff != 0:
        c = int(rng.integers(0, n_clients))
        if diff > 0 and counts[c] > min_shards:
            counts[c] -= 1
            diff -= 1
        elif diff < 0 and counts[c] < max_shards:
            counts[c] += 1
            diff += 1

    order = np.argsort(labels, kind="stable")
    shards = np.array_split(order, n_shards)
    shard_ids = rng.permutation(n_shards)
    parts, cursor = [], 0
    for c in range(n_clients):
        mine = shard_ids[cursor : cursor + counts[c]]
        cursor += counts[c]
        parts.append(np.sort(np.concatenate([shards[s] for s in mine])))
    return parts


# --------------------------------------------------------------------------
# validation and statistics
# --------------------------------------------------------------------------

def _finalize(
    parts: list[list[np.ndarray]],
    n_samples: int,
    n_clients: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Concatenate chunk lists; guarantee every client at least one sample."""
    out = [
        np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=int)
        for chunks in parts
    ]
    empty = [c for c in range(n_clients) if out[c].size == 0]
    if empty:
        donors = sorted(range(n_clients), key=lambda c: -out[c].size)
        for c in empty:
            donor = donors[0]
            if out[donor].size <= 1:
                raise ValueError("cannot give every client at least one sample")
            take = int(rng.integers(0, out[donor].size))
            moved = out[donor][take]
            out[donor] = np.delete(out[donor], take)
            out[c] = np.array([moved], dtype=int)
            donors = sorted(range(n_clients), key=lambda c2: -out[c2].size)
    return out


def validate_partition(
    parts: list[np.ndarray], n_samples: int
) -> dict[str, float]:
    """Check disjointness and return coverage statistics.

    Raises ``ValueError`` if any sample index appears in two clients or is
    out of range; returns ``{"coverage": fraction assigned, "clients": K}``.
    """
    seen = np.concatenate(parts) if parts else np.empty(0, dtype=int)
    if seen.size:
        if seen.min() < 0 or seen.max() >= n_samples:
            raise ValueError("partition contains out-of-range indices")
        uniq = np.unique(seen)
        if uniq.size != seen.size:
            raise ValueError("partition assigns some sample to multiple clients")
    return {"coverage": seen.size / max(n_samples, 1), "clients": float(len(parts))}


def partition_matrix(
    labels: np.ndarray, parts: list[np.ndarray], num_classes: int
) -> np.ndarray:
    """Label×client sample-count matrix — the data behind the paper's Fig. 4."""
    labels = np.asarray(labels)
    mat = np.zeros((num_classes, len(parts)), dtype=np.int64)
    for c, idx in enumerate(parts):
        if idx.size:
            mat[:, c] = np.bincount(labels[idx], minlength=num_classes)
    return mat


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative vector (0 = equal, →1 = skewed)."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0 or v.sum() == 0:
        return 0.0
    n = v.size
    return float((2 * np.arange(1, n + 1) - n - 1) @ v / (n * v.sum()))


def partition_summary(
    labels: np.ndarray, parts: list[np.ndarray], num_classes: int
) -> dict[str, object]:
    """Summary statistics used by tests and the Fig. 4 bench."""
    mat = partition_matrix(labels, parts, num_classes)
    sizes = mat.sum(axis=0)
    labels_per_client = (mat > 0).sum(axis=0)
    return {
        "sizes": sizes,
        "labels_per_client": labels_per_client,
        "size_gini": gini(sizes),
        "matrix": mat,
    }


PARTITIONERS = {
    "IID": iid_partition,
    "PA": pareto_partition,
    "CE": clustered_equal_partition,
    "CN": clustered_nonequal_partition,
    "EQUAL": shards_equal_partition,
    "NONEQUAL": shards_nonequal_partition,
}


def get_partitioner(name: str):
    """Look up a partitioner by its paper abbreviation."""
    try:
        return PARTITIONERS[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown partitioner {name!r}; available: {sorted(PARTITIONERS)}"
        ) from None
