"""The object-per-client virtual clock, kept as the oracle for the columnar one.

:class:`repro.runtime.clock.VirtualClock` builds its per-client latency
and link columns in one vectorised pass.  This module keeps the original
build — one :class:`DeviceProfile` per client from the latency draw, one
``client_static_rng`` generator per client for its link rate, then a
``dataclasses.replace`` pass — and the original phase arithmetic, so
tests can pin the columnar clock to it bit for bit.  Only the model
names and the clock's module constants are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.runtime.clock import (
    COMM_S,
    COMPUTE_S_PER_BATCH,
    LOGNORMAL_SIGMA,
    UNIFORM_RANGE,
)
from repro.runtime.seeding import (
    STREAM_CLOCK_PROFILE,
    STREAM_LATENCY,
    STREAM_WIRE,
    client_round_rng,
    client_static_rng,
    run_rng,
)


@dataclass(frozen=True)
class DeviceProfile:
    """Static latency and link traits of one simulated device."""

    compute_s_per_batch: float
    upload_s: float
    download_s: float
    up_bps: float | None = None
    down_bps: float | None = None


def reference_profiles(
    latency: str, n_clients: int, rng: np.random.Generator
) -> list[DeviceProfile]:
    """One profile per client, drawn as the object-per-client models did."""
    if latency == "homogeneous":
        return [DeviceProfile(COMPUTE_S_PER_BATCH, COMM_S, COMM_S) for _ in range(n_clients)]
    if latency == "uniform":
        factors = rng.uniform(*UNIFORM_RANGE, size=n_clients)
    elif latency == "lognormal":
        factors = rng.lognormal(mean=0.0, sigma=LOGNORMAL_SIGMA, size=n_clients)
    else:
        raise ValueError(f"no reference for latency model {latency!r}")
    return [
        DeviceProfile(COMPUTE_S_PER_BATCH * f, COMM_S * f, COMM_S * f)
        for f in factors
    ]


def _reference_factor(bandwidth: str, rng: np.random.Generator) -> float:
    if bandwidth == "homogeneous":
        return 1.0
    if bandwidth == "uniform":
        return float(rng.uniform(*UNIFORM_RANGE))
    if bandwidth == "lognormal":
        return float(rng.lognormal(mean=0.0, sigma=LOGNORMAL_SIGMA))
    raise ValueError(f"no reference for bandwidth model {bandwidth!r}")


def reference_rates(
    bandwidth: str, n_clients: int, base_seed: int,
    up_mbps: float = 1.0, down_mbps: float = 10.0,
) -> list[tuple[float, float]]:
    """``(up_bps, down_bps)`` per client from its own static STREAM_WIRE cell."""
    up_bps, down_bps = up_mbps * 125_000.0, down_mbps * 125_000.0
    out = []
    for cid in range(n_clients):
        f = _reference_factor(bandwidth, client_static_rng(base_seed, cid, STREAM_WIRE))
        out.append((up_bps * f, down_bps * f))
    return out


class ReferenceClock:
    """The original profile-list clock: construction plus phase arithmetic."""

    def __init__(
        self,
        latency: str,
        n_clients: int,
        seed: int = 0,
        straggler_fraction: float = 0.0,
        straggler_slowdown: float = 8.0,
        jitter_sigma: float = 0.05,
        bandwidth: str | None = None,
        up_mbps: float = 1.0,
        down_mbps: float = 10.0,
        straggler_comm_slowdown: float | None = None,
    ) -> None:
        rng = run_rng(seed, STREAM_CLOCK_PROFILE)
        self.seed = seed
        self.profiles = reference_profiles(latency, n_clients, rng)
        if bandwidth is not None:
            rates = reference_rates(bandwidth, n_clients, seed, up_mbps, down_mbps)
            self.profiles = [
                replace(p, up_bps=up, down_bps=down)
                for p, (up, down) in zip(self.profiles, rates)
            ]
        n_stragglers = int(round(straggler_fraction * n_clients))
        self.stragglers = set(
            rng.choice(n_clients, size=n_stragglers, replace=False).tolist()
        ) if n_stragglers else set()
        self.straggler_slowdown = straggler_slowdown
        self.straggler_comm_slowdown = (
            straggler_slowdown if straggler_comm_slowdown is None
            else straggler_comm_slowdown
        )
        self.jitter_sigma = jitter_sigma

    def _phases(self, client_id, n_batches, upload_bytes=None, download_bytes=None):
        profile = self.profiles[client_id]
        download = profile.download_s
        upload = profile.upload_s
        if download_bytes is not None and profile.down_bps is not None:
            download = download_bytes / profile.down_bps
        if upload_bytes is not None and profile.up_bps is not None:
            upload = upload_bytes / profile.up_bps
        return download, n_batches * profile.compute_s_per_batch, upload

    def client_time(self, round_idx, client_id, n_batches,
                    upload_bytes=None, download_bytes=None):
        download, compute, upload = self._phases(
            client_id, n_batches, upload_bytes, download_bytes
        )
        if client_id in self.stragglers:
            if self.straggler_comm_slowdown == self.straggler_slowdown:
                base = (download + compute + upload) * self.straggler_slowdown
            else:
                base = (
                    download * self.straggler_comm_slowdown
                    + compute * self.straggler_slowdown
                    + upload * self.straggler_comm_slowdown
                )
        else:
            base = download + compute + upload
        if self.jitter_sigma > 0:
            jrng = client_round_rng(self.seed, round_idx, client_id, STREAM_LATENCY)
            base *= float(jrng.lognormal(mean=0.0, sigma=self.jitter_sigma))
        return base

    def decompose(self, client_id, n_batches, total_s,
                  upload_bytes=None, download_bytes=None):
        download, compute, upload = self._phases(
            client_id, n_batches, upload_bytes, download_bytes
        )
        if (
            client_id in self.stragglers
            and self.straggler_comm_slowdown != self.straggler_slowdown
        ):
            download *= self.straggler_comm_slowdown
            upload *= self.straggler_comm_slowdown
            compute *= self.straggler_slowdown
        base = download + compute + upload
        if base <= 0.0:
            return 0.0, total_s, 0.0
        scale = total_s / base
        download *= scale
        upload *= scale
        return download, total_s - download - upload, upload
