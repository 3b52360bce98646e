"""Virtual-clock device-heterogeneity simulator.

The paper's setting is a fleet of heterogeneous edge devices, but the
reproduction's real wall-clock only measures this host.  The virtual
clock decouples *simulated* time from *execution* time, in the spirit of
FLGo's ``system_simulator``: a factor-1 device spends
``COMPUTE_S_PER_BATCH`` (2 ms) per local batch and ``COMM_S`` (0.1 s) per
upload and per download, and each client's times are scaled by one
factor drawn by :func:`latency_factors` (``homogeneous``: 1;
``uniform``: U[0.5, 2]; ``lognormal``: sigma 0.5).  A configurable
fraction of clients are stragglers slowed by a constant factor, and each
round's simulated makespan is the slowest participant — optionally
clipped by a round deadline that drops the late updates before
aggregation (changing the training trajectory, as a real deadline would).

With a bandwidth model, :func:`link_factors` draws one link factor per
client by the same three rules, and a comm phase with a known payload
size costs ``bytes / rate`` at ``up_mbps`` / ``down_mbps`` times that
factor instead of ``COMM_S``.

The fleet is columnar: one float64 column per trait (compute and comm
seconds; link rates), each drawn in one vectorised pass, so a
million-client clock costs arrays, not objects.

Per-round latency jitter is keyed on ``(round, client)`` through
:mod:`repro.runtime.seeding`, so simulated timings are identical under
every execution backend and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.runtime import vecrng
from repro.runtime.seeding import (
    STREAM_CLOCK_PROFILE, STREAM_LATENCY, STREAM_WIRE, client_round_rng, run_rng,
)

LATENCY_MODELS = ("homogeneous", "uniform", "lognormal")
BANDWIDTH_MODELS = LATENCY_MODELS

# A factor-1 device: seconds per local batch, and per upload or download
# when no link rate turns payload bytes into comm time.
COMPUTE_S_PER_BATCH = 2e-3
COMM_S = 0.1
# The spread of the "uniform" and "lognormal" per-client factors.
UNIFORM_RANGE = (0.5, 2.0)
LOGNORMAL_SIGMA = 0.5


def n_local_batches(n_samples: int, epochs: int, batch_size: int) -> int:
    """Gradient steps a client performs in one round."""
    return epochs * math.ceil(n_samples / batch_size)


def latency_factors(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One speed factor per client, drawn from the clock's run stream.

    ``homogeneous`` is all ones and draws nothing; ``uniform`` is
    U[0.5, 2]; ``lognormal`` is heavy-tailed with sigma 0.5.
    """
    if name == "homogeneous":
        return np.ones(n)
    if name == "uniform":
        return rng.uniform(*UNIFORM_RANGE, size=n)
    if name == "lognormal":
        return rng.lognormal(mean=0.0, sigma=LOGNORMAL_SIGMA, size=n)
    raise ValueError(f"latency model must be one of {LATENCY_MODELS}, got {name!r}")


def link_factors(name: str, n: int, seed: int) -> np.ndarray:
    """One link-quality factor per client, scaling both directions.

    Link quality is a *device trait*: client ``c``'s draw comes from its
    static ``(c, STREAM_WIRE)`` RNG cell, a pure function of the seed and
    the client id, independent of how many clients exist.  The rules
    match :func:`latency_factors`.
    """
    if name == "homogeneous":
        return np.ones(n)
    if name == "uniform":
        # Generator.uniform(low, high) is exactly low + (high - low) * u.
        low, high = UNIFORM_RANGE
        u = vecrng.CellBatchKernel(seed, np.arange(n), 0, 1).uniforms((), (STREAM_WIRE,))
        return low + (high - low) * u
    if name == "lognormal":
        cells = (np.arange(n), STREAM_WIRE)
        return vecrng.spawn_key_draws(seed, cells, "lognormal", 0.0, LOGNORMAL_SIGMA)
    raise ValueError(f"bandwidth model must be one of {BANDWIDTH_MODELS}, got {name!r}")


@dataclass
class RoundTiming:
    """Simulated timing outcome of one round."""

    round_idx: int
    client_times_s: dict[int, float]
    makespan_s: float
    dropped: list[int] = field(default_factory=list)
    deadline_s: float | None = None


class VirtualClock:
    """Advances simulated time by each round's makespan.

    Without a deadline the round waits out every straggler; with
    ``deadline_s`` set, updates from clients that miss it are discarded —
    the caller must exclude ``RoundTiming.dropped`` from aggregation.  At
    least one update always survives: if everyone misses the deadline the
    fastest client is kept (a real server would rather extend the round
    than lose it).
    """

    def __init__(
        self,
        latency: str,
        n_clients: int,
        seed: int = 0,
        deadline_s: float | None = None,
        straggler_fraction: float = 0.0,
        straggler_slowdown: float = 8.0,
        jitter_sigma: float = 0.05,
        bandwidth: str | None = None,
        up_mbps: float = 1.0,
        down_mbps: float = 10.0,
    ) -> None:
        if not 0.0 <= straggler_fraction <= 1.0:
            raise ValueError("straggler_fraction must be in [0, 1]")
        if straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if up_mbps <= 0 or down_mbps <= 0:
            raise ValueError("bandwidth rates must be positive")
        rng = run_rng(seed, STREAM_CLOCK_PROFILE)
        self.seed = seed
        f = latency_factors(latency, n_clients, rng)
        self.compute_s = COMPUTE_S_PER_BATCH * f
        self.comm_s = COMM_S * f
        # Link rates (bytes/s; 1 Mbit/s = 125 000 B/s) come from static RNG
        # cells, not from `rng`, so adding bandwidth never reshuffles the
        # latency draw or the straggler choice below.
        self.up_bps = self.down_bps = None
        if bandwidth is not None:
            link = link_factors(bandwidth, n_clients, seed)
            self.up_bps = up_mbps * 125_000.0 * link
            self.down_bps = down_mbps * 125_000.0 * link
        n_stragglers = int(round(straggler_fraction * n_clients))
        self.stragglers = set(
            rng.choice(n_clients, size=n_stragglers, replace=False).tolist()
        ) if n_stragglers else set()
        self.straggler_slowdown = straggler_slowdown
        self.deadline_s = deadline_s
        self.jitter_sigma = jitter_sigma
        self.elapsed_s = 0.0
        # Simulated fault-recovery seconds (retry backoff).  A separate
        # ledger from elapsed_s on purpose: folding recovery time into the
        # main clock would shift availability slots and round makespans,
        # breaking the "faulted run bit-identical to clean run" guarantee.
        self.fault_recovery_s = 0.0

    def advance(self, seconds: float) -> None:
        """Advance simulated time outside a round (e.g. the server waiting
        for any client to come online under an availability model)."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.elapsed_s += seconds

    def charge_recovery(self, seconds: float) -> None:
        """Accumulate simulated fault-recovery (retry backoff) time."""
        if seconds < 0:
            raise ValueError("cannot charge negative recovery time")
        self.fault_recovery_s += seconds

    def _phases(
        self,
        client_id: int,
        n_batches: int,
        upload_bytes: int | None = None,
        download_bytes: int | None = None,
    ) -> tuple[float, float, float]:
        """Raw (unjittered, un-slowed) phase times for one client's round.

        Comm phases are ``bytes / rate`` when both a payload size and a
        link rate exist; otherwise the client's ``comm_s`` — so runs
        without the wire subsystem (or without a bandwidth model) are
        byte-blind.
        """
        if download_bytes is not None and self.down_bps is not None:
            download = download_bytes / self.down_bps.item(client_id)
        else:
            download = self.comm_s.item(client_id)
        if upload_bytes is not None and self.up_bps is not None:
            upload = upload_bytes / self.up_bps.item(client_id)
        else:
            upload = self.comm_s.item(client_id)
        return download, n_batches * self.compute_s.item(client_id), upload

    def client_time(
        self,
        round_idx: int,
        client_id: int,
        n_batches: int,
        upload_bytes: int | None = None,
        download_bytes: int | None = None,
    ) -> float:
        """Simulated seconds for one client's round, jitter included."""
        download, compute, upload = self._phases(
            client_id, n_batches, upload_bytes, download_bytes
        )
        base = download + compute + upload
        if client_id in self.stragglers:
            base *= self.straggler_slowdown
        if self.jitter_sigma > 0:
            jrng = client_round_rng(self.seed, round_idx, client_id, STREAM_LATENCY)
            base *= float(jrng.lognormal(mean=0.0, sigma=self.jitter_sigma))
        return base

    def decompose(
        self,
        client_id: int,
        n_batches: int,
        total_s: float,
        upload_bytes: int | None = None,
        download_bytes: int | None = None,
    ) -> tuple[float, float, float]:
        """Split a client's simulated round time into its phases.

        Returns ``(download_s, compute_s, upload_s)`` scaled so they sum
        to ``total_s`` (the jittered/straggler-multiplied actual time):
        jitter and the straggler factor scale the whole round, so each
        phase keeps its unscaled share.  Pure arithmetic — no RNG draws —
        so tracing a round never perturbs the timing streams.
        """
        download, compute, upload = self._phases(
            client_id, n_batches, upload_bytes, download_bytes
        )
        base = download + compute + upload
        if base <= 0.0:
            return 0.0, total_s, 0.0
        scale = total_s / base
        download *= scale
        upload *= scale
        return download, total_s - download - upload, upload

    def observe_round(
        self,
        round_idx: int,
        participants: list[int],
        n_batches: dict[int, int],
        upload_bytes: int | None = None,
        download_bytes: int | None = None,
    ) -> RoundTiming:
        """Record one round: per-client times, deadline drops, makespan."""
        times = {
            cid: self.client_time(
                round_idx, cid, n_batches[cid], upload_bytes, download_bytes
            )
            for cid in participants
        }
        dropped: list[int] = []
        if self.deadline_s is not None:
            kept = [cid for cid in participants if times[cid] <= self.deadline_s]
            if not kept:
                kept = [min(participants, key=lambda cid: times[cid])]
            dropped = [cid for cid in participants if cid not in kept]
            makespan = self.deadline_s if dropped else max(times.values())
            makespan = max(makespan, max(times[cid] for cid in kept))
        else:
            makespan = max(times.values())
        timing = RoundTiming(
            round_idx=round_idx,
            client_times_s=times,
            makespan_s=float(makespan),
            dropped=dropped,
            deadline_s=self.deadline_s,
        )
        self.elapsed_s += timing.makespan_s
        return timing
