"""Virtual-clock device-heterogeneity simulator.

The paper's setting is a fleet of heterogeneous edge devices, but the
reproduction's real wall-clock only measures this host.  The virtual
clock decouples *simulated* time from *execution* time, in the spirit of
FLGo's ``system_simulator``: every client gets a per-batch compute
latency plus upload/download cost scaled by a factor drawn from a
:class:`LatencyModel`, a configurable fraction of clients are stragglers
slowed by a constant factor, and each round's simulated makespan is the
slowest participant — optionally clipped by a round deadline that drops
the late updates before aggregation (changing the training trajectory, as
a real deadline would).

The fleet is columnar: one float64 column per trait (compute, upload,
download seconds; link rates), each drawn in one vectorised pass, so a
million-client clock costs arrays, not objects; ``profile(cid)`` builds
one client's :class:`DeviceProfile` on demand.

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
BANDWIDTH_MODELS = ("homogeneous", "uniform", "lognormal")


@dataclass(frozen=True)
class DeviceProfile:
    """Static latency characteristics of one simulated device.

    ``up_bps`` / ``down_bps`` are optional link rates (bytes per
    second).  When a rate is present *and* the caller supplies a payload
    size, the corresponding comm phase is ``bytes / rate`` instead of
    the fixed ``upload_s`` / ``download_s`` constant — the wire
    subsystem's byte accounting then drives simulated comm time.  With
    no rates (the default) the constants apply and all existing timing
    is unchanged.
    """

    compute_s_per_batch: float
    upload_s: float
    download_s: float
    up_bps: float | None = None
    down_bps: float | None = None

    def round_seconds(self, n_batches: int) -> float:
        """Deterministic (jitter-free) time for one round of local work."""
        return self.download_s + n_batches * self.compute_s_per_batch + self.upload_s


def n_local_batches(n_samples: int, epochs: int, batch_size: int) -> int:
    """Gradient steps a client performs in one round."""
    return epochs * math.ceil(n_samples / batch_size)


class LatencyModel:
    """Draws one factor per client that scales ``base``'s latencies."""

    name: str = "base"
    base: HomogeneousLatency

    def factors(self, n_clients: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class HomogeneousLatency(LatencyModel):
    """Identical devices — isolates deadline/straggler effects."""

    name = "homogeneous"

    def __init__(
        self,
        compute_s_per_batch: float = 2e-3,
        upload_s: float = 0.1,
        download_s: float = 0.1,
    ) -> None:
        self.compute_s_per_batch = compute_s_per_batch
        self.upload_s = upload_s
        self.download_s = download_s

    @property
    def base(self) -> HomogeneousLatency:
        return self

    def factors(self, n_clients: int, rng: np.random.Generator) -> np.ndarray:
        return np.ones(n_clients)


class UniformLatency(LatencyModel):
    """Device speeds spread uniformly over a bounded multiplier range."""

    name = "uniform"

    def __init__(
        self,
        base: HomogeneousLatency | None = None,
        low: float = 0.5,
        high: float = 2.0,
    ) -> None:
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        self.base = base or HomogeneousLatency()
        self.low = low
        self.high = high

    def factors(self, n_clients: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n_clients)


class LogNormalLatency(LatencyModel):
    """Heavy-tailed device speeds — a few naturally slow devices."""

    name = "lognormal"

    def __init__(self, base: HomogeneousLatency | None = None, sigma: float = 0.5) -> None:
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.base = base or HomogeneousLatency()
        self.sigma = sigma

    def factors(self, n_clients: int, rng: np.random.Generator) -> np.ndarray:
        return rng.lognormal(mean=0.0, sigma=self.sigma, size=n_clients)


def get_latency_model(name: str, **kwargs) -> LatencyModel:
    """Latency model by CLI name."""
    models = {
        "homogeneous": HomogeneousLatency,
        "uniform": UniformLatency,
        "lognormal": LogNormalLatency,
    }
    if name not in models:
        raise ValueError(f"latency model must be one of {LATENCY_MODELS}, got {name!r}")
    return models[name](**kwargs)


class BandwidthModel:
    """Draws one link-quality factor per client.

    Link quality is a *device trait*, so each client's draw comes from
    its static ``(client, STREAM_WIRE)`` RNG cell — a pure function of
    the experiment seed and the client id, independent of how many
    clients exist.  One factor scales both directions: a client on a bad
    link is slow both ways.
    """

    name: str = "base"

    def __init__(self, up_bps: float, down_bps: float) -> None:
        if up_bps <= 0 or down_bps <= 0:
            raise ValueError("bandwidth rates must be positive")
        self.up_bps = up_bps
        self.down_bps = down_bps

    def factors(self, n_clients: int, base_seed: int) -> np.ndarray:
        raise NotImplementedError

    def rates(self, n_clients: int, base_seed: int) -> tuple[np.ndarray, np.ndarray]:
        """``(up_bps, down_bps)`` columns, one entry per client."""
        f = self.factors(n_clients, base_seed)
        return self.up_bps * f, self.down_bps * f


class HomogeneousBandwidth(BandwidthModel):
    """Every client gets the same link — isolates payload-size effects."""

    name = "homogeneous"

    def factors(self, n_clients: int, base_seed: int) -> np.ndarray:
        return np.ones(n_clients)


class UniformBandwidth(BandwidthModel):
    """Link quality spread uniformly over a bounded multiplier range."""

    name = "uniform"

    def __init__(
        self, up_bps: float, down_bps: float, low: float = 0.5, high: float = 2.0
    ) -> None:
        super().__init__(up_bps, down_bps)
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        self.low = low
        self.high = high

    def factors(self, n_clients: int, base_seed: int) -> np.ndarray:
        # Generator.uniform(low, high) is exactly low + (high - low) * u.
        kernel = vecrng.CellBatchKernel(base_seed, np.arange(n_clients), 0, 1)
        u = kernel.uniforms((), (STREAM_WIRE,))
        return self.low + (self.high - self.low) * u


class LogNormalBandwidth(BandwidthModel):
    """Heavy-tailed link quality — a few clients on very poor links."""

    name = "lognormal"

    def __init__(self, up_bps: float, down_bps: float, sigma: float = 0.5) -> None:
        super().__init__(up_bps, down_bps)
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = sigma

    def factors(self, n_clients: int, base_seed: int) -> np.ndarray:
        cells = (np.arange(n_clients), STREAM_WIRE)
        return vecrng.spawn_key_draws(base_seed, cells, "lognormal", 0.0, self.sigma)


def get_bandwidth_model(
    name: str, up_mbps: float = 1.0, down_mbps: float = 10.0, **kwargs
) -> BandwidthModel:
    """Bandwidth model by CLI name; rates given in megabits per second."""
    models = {
        "homogeneous": HomogeneousBandwidth,
        "uniform": UniformBandwidth,
        "lognormal": LogNormalBandwidth,
    }
    if name not in models:
        raise ValueError(
            f"bandwidth model must be one of {BANDWIDTH_MODELS}, got {name!r}"
        )
    if up_mbps <= 0 or down_mbps <= 0:
        raise ValueError("bandwidth rates must be positive")
    # Mbit/s -> bytes/s: 1e6 bits / 8.
    return models[name](up_bps=up_mbps * 125_000.0, down_bps=down_mbps * 125_000.0, **kwargs)


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
        latency_model: LatencyModel,
        n_clients: int,
        seed: int = 0,
        deadline_s: float | None = None,
        straggler_fraction: float = 0.0,
        straggler_slowdown: float = 8.0,
        jitter_sigma: float = 0.05,
        bandwidth: BandwidthModel | None = None,
    ) -> None:
        if not 0.0 <= straggler_fraction <= 1.0:
            raise ValueError("straggler_fraction must be in [0, 1]")
        if straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        rng = run_rng(seed, STREAM_CLOCK_PROFILE)
        self.seed = seed
        f = latency_model.factors(n_clients, rng)
        base = latency_model.base
        self.compute_s = base.compute_s_per_batch * f
        self.upload_s = base.upload_s * f
        self.download_s = base.download_s * f
        # Link rates come from static RNG cells, not from `rng`, so adding
        # bandwidth never reshuffles the latency draw or the straggler
        # choice below.
        self.up_bps, self.down_bps = (
            (None, None) if bandwidth is None else bandwidth.rates(n_clients, seed)
        )
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
        self.timings: list[RoundTiming] = []

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

    def profile(self, client_id: int) -> DeviceProfile:
        """One client's static latency and link traits."""
        return DeviceProfile(
            self.compute_s.item(client_id),
            self.upload_s.item(client_id),
            self.download_s.item(client_id),
            None if self.up_bps is None else self.up_bps.item(client_id),
            None if self.down_bps is None else self.down_bps.item(client_id),
        )

    def _phases(
        self,
        client_id: int,
        n_batches: int,
        upload_bytes: int | None = None,
        download_bytes: int | None = None,
    ) -> tuple[float, float, float]:
        """Raw (unjittered, un-slowed) phase times for one client's round.

        Comm phases are ``bytes / rate`` when both a payload size and a
        link rate exist; otherwise the fixed per-client constants — so
        runs without the wire subsystem (or without a bandwidth model)
        are byte-blind exactly as before.
        """
        if download_bytes is not None and self.down_bps is not None:
            download = download_bytes / self.down_bps.item(client_id)
        else:
            download = self.download_s.item(client_id)
        if upload_bytes is not None and self.up_bps is not None:
            upload = upload_bytes / self.up_bps.item(client_id)
        else:
            upload = self.upload_s.item(client_id)
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
        # Same left-to-right sum as DeviceProfile.round_seconds.
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
        phase keeps its profile share.  Pure arithmetic — no RNG draws —
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
        self.timings.append(timing)
        return timing
