"""Metrics primitives: counters, gauges, histograms, and the stopwatch.

One small, dependency-free metrics layer shared by the whole codebase.
Three instrument kinds cover everything the simulators need to report:

* :class:`Counter` — a monotonically increasing total (updates aggregated,
  bytes through the process-backend IPC, dropped uploads).
* :class:`Gauge` — a last-write-wins level (queue depth, online-population
  size, in-flight jobs).
* :class:`Histogram` — streaming count/sum/min/max over observations
  (staleness distribution, work fractions, per-round makespans).

A :class:`MetricsRegistry` owns the instruments by name.  Names are
namespaced by clock domain: ``sim.*`` metrics are derived purely from
simulated time and deterministic seed streams, so their totals are
**bit-identical across execution backends**; ``rt.*`` metrics describe
the physical runtime (wall times, IPC bytes, worker counts) and may
legitimately differ between serial / thread / process runs.  The
determinism tests compare ``sim.*`` only.

Nothing in this module draws random numbers or reads the clock on its
own — instruments are pure accumulators, so recording a metric can never
perturb an experiment's RNG streams.

:class:`Timer` is the codebase's one stopwatch (``perf_counter`` based).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

SIM_PREFIX = "sim."
RUNTIME_PREFIX = "rt."


class Timer:
    """Minimal context-manager stopwatch (``perf_counter`` based)."""

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._t0


@dataclass
class Counter:
    """A monotonically increasing total."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins level."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Streaming count / sum / min / max over observations."""

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    A name is one *kind* for its whole lifetime — asking for an existing
    name through a different instrument method is an error, which catches
    cross-module typos early.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        self._check_unique(name, self._counters)
        return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        self._check_unique(name, self._gauges)
        return self._gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        self._check_unique(name, self._histograms)
        return self._histograms.setdefault(name, Histogram())

    def _check_unique(self, name: str, own: dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(f"metric {name!r} already exists with another kind")

    # -- convenience recorders ----------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- views ----------------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry's full state as plain JSON-serialisable dicts."""
        return {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].as_dict() for k in sorted(self._histograms)
            },
        }

    def sim_totals(self) -> dict:
        """Deterministic ``sim.*`` totals only — the cross-backend contract."""
        snap = self.snapshot()
        return {
            kind: {k: v for k, v in values.items() if k.startswith(SIM_PREFIX)}
            for kind, values in snap.items()
        }
