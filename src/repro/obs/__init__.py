"""``repro.obs`` — structured tracing, metrics, and run manifests.

The observability layer for both simulation engines and every execution
backend:

* :class:`Tracer` — bounded span buffer with **dual timestamps** (wall
  time and :class:`~repro.runtime.clock.VirtualClock` simulated time),
  exported as one JSONL file per run; the Chrome ``trace_event``
  (Perfetto-loadable) view is converted from it on demand
  (:func:`write_chrome`).
* :class:`MetricsRegistry` — counters / gauges / histograms with
  periodic snapshots into the trace stream; ``sim.*`` metrics are
  bit-identical across backends, ``rt.*`` describe the physical runtime.
* run manifests — the resolved config, seed streams, dtype, backend,
  package versions and git SHA, carried in every trace's header line.
* trace summaries — the per-phase breakdown behind
  ``python -m repro trace-summary PATH [--chrome OUT]``.

Design rules: a disabled tracer is ``None`` guarded at every call site
(<1% overhead target), the obs path draws **zero** random numbers, and
every simulated-time span field is deterministic across the serial /
thread / process backends.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    git_sha,
    seed_stream_names,
    write_run_artifacts,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)
from repro.obs.summary import format_summary, summarize_records, summarize_trace
from repro.obs.trace import (
    CATEGORIES,
    TRACE_SCHEMA,
    Tracer,
    chrome_events,
    read_trace,
    validate_record,
    write_chrome,
)

__all__ = [
    "CATEGORIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MANIFEST_SCHEMA",
    "MetricsRegistry",
    "TRACE_SCHEMA",
    "Timer",
    "Tracer",
    "build_manifest",
    "chrome_events",
    "format_summary",
    "git_sha",
    "read_trace",
    "seed_stream_names",
    "summarize_records",
    "summarize_trace",
    "validate_record",
    "write_chrome",
    "write_run_artifacts",
]
