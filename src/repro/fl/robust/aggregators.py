"""Robust aggregation: byzantine-tolerant replacements for the mean.

A :class:`RobustAggregator` combines the round's (or buffer's) client
*deltas* — each row is ``w_k − reference`` on the flat arena — into one
combined delta, reporting which updates it rejected or clipped:

* ``mean`` — the alpha-weighted mean (the undefended baseline, exposed so
  benchmark sweeps can run attack × {mean, defenses} through one code
  path; the engines keep their historical bit-exact path when no
  aggregator is configured at all).
* ``median`` — coordinate-wise median: each coordinate of the combined
  delta is the median of that coordinate across updates.  Tolerates
  up to half the updates being arbitrary.
* ``trimmed_mean`` — per coordinate, drop the ``t`` largest and ``t``
  smallest values and average the rest, ``t = ⌈trim_fraction·K⌉``
  (clamped so at least one value survives).
* ``krum`` / ``multikrum`` — Blanchard et al.: score every update by the
  summed squared distance to its ``K − f − 2`` nearest neighbors and
  keep the best-scored one (Krum) or best ``K − f`` (multi-Krum),
  alpha-weighted; the rest are *rejected* outright.
* ``norm_clip`` — clip every delta's L2 norm to the median delta norm
  (or a fixed ``clip_norm``), then take the alpha-weighted mean: bounds
  any single update's displacement without rejecting anyone.

All statistics are computed on deltas because coordinate-wise and
distance-based estimators are translation-equivariant — operating on raw
weight vectors would give the same answer for median/Krum but makes norm
clipping meaningless (all weight vectors have similar norms; their
*displacements* are what an attacker inflates).

The aggregators are deterministic functions of their inputs — no RNG —
so defended runs stay bit-identical across execution backends for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROBUST_AGGREGATORS = ("mean", "median", "trimmed_mean", "krum", "multikrum", "norm_clip")


@dataclass
class AggregationInfo:
    """What the defense did to one batch of updates.

    ``rejected`` / ``clipped`` hold *positions* into the update list the
    engines map back to client ids; ``trimmed_per_coordinate`` is the
    per-coordinate trim depth of a trimmed mean (coordinate-wise
    estimators have no per-client rejection to report).
    """

    rejected: list[int] = field(default_factory=list)
    clipped: list[int] = field(default_factory=list)
    trimmed_per_coordinate: int = 0


class RobustAggregator:
    """One byzantine-tolerant combination rule over flat client deltas."""

    def __init__(
        self,
        name: str,
        trim_fraction: float = 0.2,
        byzantine_fraction: float = 0.2,
        clip_norm: float | None = None,
    ) -> None:
        if name not in ROBUST_AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {ROBUST_AGGREGATORS}, got {name!r}"
            )
        if not 0.0 <= trim_fraction < 0.5:
            raise ValueError("trim_fraction must be in [0, 0.5)")
        if not 0.0 <= byzantine_fraction < 0.5:
            raise ValueError("byzantine_fraction must be in [0, 0.5)")
        if clip_norm is not None and clip_norm <= 0:
            raise ValueError("clip_norm must be positive when given")
        self.name = name
        self.trim_fraction = trim_fraction
        self.byzantine_fraction = byzantine_fraction
        self.clip_norm = clip_norm

    def combine(
        self, deltas: np.ndarray, alphas: np.ndarray
    ) -> tuple[np.ndarray, AggregationInfo]:
        """Combine a ``(K, D)`` delta matrix into one ``(D,)`` delta.

        ``alphas`` are the strategy's (staleness-composed) impact factors;
        they are renormalized here.  Coordinate-wise estimators (median,
        trimmed mean) are unweighted by construction; mean, norm-clip and
        the Krum family weight their surviving rows by the renormalized
        alphas.  Raises :class:`ValueError` on an empty matrix or a
        non-positive alpha mass — callers must skip the aggregation step
        instead of letting a zero-mass division NaN the arena.
        """
        deltas = np.asarray(deltas)
        if deltas.ndim != 2 or deltas.shape[0] == 0:
            raise ValueError(
                "robust aggregation needs a non-empty (K, D) update matrix — "
                "skip the aggregation when every update was rejected upstream"
            )
        alphas = np.asarray(alphas, dtype=float)
        if alphas.shape != (deltas.shape[0],):
            raise ValueError(
                f"alphas shape {alphas.shape} does not match {deltas.shape[0]} updates"
            )
        if np.any(alphas < -1e-12):
            raise ValueError("impact factors must be non-negative")
        total = alphas.sum()
        if total <= 0:
            raise ValueError(
                "impact factors have zero total mass — nothing to aggregate "
                "(staleness decay or the defense zeroed every update)"
            )
        alphas = alphas / total
        return getattr(self, f"_{self.name}")(deltas, alphas)

    # -- rules ---------------------------------------------------------------
    def _mean(self, deltas, alphas):
        return alphas.astype(deltas.dtype, copy=False) @ deltas, AggregationInfo()

    def _median(self, deltas, alphas):
        return (
            np.median(deltas, axis=0).astype(deltas.dtype, copy=False),
            AggregationInfo(trimmed_per_coordinate=(deltas.shape[0] - 1) // 2),
        )

    def _trimmed_mean(self, deltas, alphas):
        k = deltas.shape[0]
        t = min(int(np.ceil(self.trim_fraction * k)), (k - 1) // 2)
        if t == 0:
            combined = deltas.mean(axis=0)
        else:
            ordered = np.sort(deltas, axis=0)
            combined = ordered[t : k - t].mean(axis=0)
        return combined.astype(deltas.dtype, copy=False), AggregationInfo(
            trimmed_per_coordinate=t
        )

    def _krum(self, deltas, alphas):
        return self._krum_family(deltas, alphas, multi=False)

    def _multikrum(self, deltas, alphas):
        return self._krum_family(deltas, alphas, multi=True)

    def _krum_family(self, deltas, alphas, multi: bool):
        k = deltas.shape[0]
        f = int(np.ceil(self.byzantine_fraction * k))
        n_select = max(1, k - f) if multi else 1
        if k <= 2:
            # Too few updates to score distances meaningfully: keep the
            # higher-weighted update rather than guessing.
            best = int(np.argmax(alphas))
            selected = np.array([best])
        else:
            # Pairwise squared distances via the Gram matrix (one GEMM).
            sq = np.einsum("ij,ij->i", deltas, deltas)
            dist = sq[:, None] + sq[None, :] - 2.0 * (deltas @ deltas.T)
            np.fill_diagonal(dist, np.inf)
            n_neighbors = max(1, min(k - f - 2, k - 1))
            part = np.partition(dist, n_neighbors - 1, axis=1)[:, :n_neighbors]
            scores = part.sum(axis=1)
            selected = np.sort(np.argsort(scores, kind="stable")[:n_select])
        weights = alphas[selected]
        weights = weights / weights.sum() if weights.sum() > 0 else np.full(
            len(selected), 1.0 / len(selected)
        )
        combined = weights.astype(deltas.dtype, copy=False) @ deltas[selected]
        rejected = [i for i in range(k) if i not in set(selected.tolist())]
        return combined, AggregationInfo(rejected=rejected)

    def _norm_clip(self, deltas, alphas):
        norms = np.linalg.norm(deltas, axis=1)
        threshold = self.clip_norm
        if threshold is None:
            threshold = float(np.median(norms))
        if threshold <= 0:
            # All-zero deltas (or a degenerate clip): nothing to scale.
            return alphas.astype(deltas.dtype, copy=False) @ deltas, AggregationInfo()
        factors = np.minimum(1.0, threshold / np.maximum(norms, 1e-30))
        clipped = [int(i) for i in np.nonzero(norms > threshold)[0]]
        scaled = deltas * factors[:, None].astype(deltas.dtype, copy=False)
        return (
            alphas.astype(deltas.dtype, copy=False) @ scaled,
            AggregationInfo(clipped=clipped),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RobustAggregator(name={self.name!r})"
