"""Hierarchical (edge-server) aggregation (Section 3.5's compatibility claim).

The paper states FedDRL remains applicable under "hierarchical
architecture [28]" (H-FL): clients report to regional *edge servers*, each
edge server aggregates its group locally, and the cloud server aggregates
the edge aggregates.  Here the cloud-level combination is pluggable, so
FedDRL can weight the *edge* aggregates exactly as it weights clients in
the flat topology — each edge aggregate is summarised by the same
``(l_b, l_a, n)`` tuple, computed as the sample-weighted means/sums of its
member updates.
"""

from __future__ import annotations

import numpy as np

from repro.fl.client import ClientUpdate
from repro.fl.strategies.base import combine_updates


def edge_aggregate(updates: list[ClientUpdate], edge_id: int) -> ClientUpdate:
    """FedAvg within one edge group; returns a pseudo-update for the cloud.

    Losses are sample-weighted means (the natural summary a real edge
    server would report) and the sample count is the group total, so the
    cloud-level strategy sees the same statistics it would for a single
    large client.
    """
    if not updates:
        raise ValueError("an edge group needs at least one update")
    n = np.array([u.n_samples for u in updates], dtype=float)
    alphas = n / n.sum()
    weights = combine_updates(updates, alphas)
    return ClientUpdate(
        client_id=edge_id,
        weights=weights,
        loss_before=float(alphas @ [u.loss_before for u in updates]),
        loss_after=float(alphas @ [u.loss_after for u in updates]),
        n_samples=int(n.sum()),
    )


def assign_edges(client_ids: list[int], n_edges: int) -> dict[int, int]:
    """Deterministic client→edge map (round-robin over sorted ids)."""
    if n_edges <= 0:
        raise ValueError("n_edges must be positive")
    return {cid: i % n_edges for i, cid in enumerate(sorted(client_ids))}


def fold_edges(
    updates: list[ClientUpdate],
    n_edges: int,
    factors: np.ndarray | None = None,
    anchors: list[np.ndarray] | None = None,
) -> tuple[list[ClientUpdate], np.ndarray | None, list[np.ndarray] | None,
           np.ndarray, list[list[int]]]:
    """Fold client updates into edge pseudo-updates (both engines' hier step).

    The effective edge count is ``min(n_edges, #distinct clients)`` so a
    thin round (or a small async buffer) still populates every edge.
    Per-edge folding is sample-weighted FedAvg (:func:`edge_aggregate`);
    optional per-update scalars ``factors`` (the async engine's staleness
    factors) and vector ``anchors`` (delta-form dispatch weights) fold
    with the same weights, so an edge aggregate behaves exactly like one
    large client whose members trained together.

    Returns ``(edge_updates, edge_factors, edge_anchors, shares,
    members)`` where ``shares[i]`` is update ``i``'s sample share within
    its edge and ``members[e]`` lists the update positions folded into
    edge ``e`` — enough to expand cloud-level alphas back to effective
    per-client ones for the round record.
    """
    if not updates:
        raise ValueError("cannot fold an empty update list")
    distinct = sorted({u.client_id for u in updates})
    edge_of = assign_edges(distinct, min(n_edges, len(distinct)))
    n_eff = max(edge_of.values()) + 1 if edge_of else 1
    members: list[list[int]] = [[] for _ in range(n_eff)]
    for pos, u in enumerate(updates):
        members[edge_of[u.client_id]].append(pos)
    edge_updates = []
    edge_factors = None if factors is None else np.empty(n_eff)
    edge_anchors = None if anchors is None else []
    shares = np.empty(len(updates))
    for e, positions in enumerate(members):
        group = [updates[p] for p in positions]
        edge_updates.append(edge_aggregate(group, edge_id=e))
        n = np.array([u.n_samples for u in group], dtype=float)
        w = n / n.sum()
        for p, share in zip(positions, w):
            shares[p] = share
        if factors is not None:
            edge_factors[e] = float(w @ np.asarray(factors, dtype=float)[positions])
        if anchors is not None:
            stacked = np.stack([anchors[p] for p in positions])
            edge_anchors.append(w.astype(stacked.dtype, copy=False) @ stacked)
    return edge_updates, edge_factors, edge_anchors, shares, members
