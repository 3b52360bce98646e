"""``repro.runtime`` — the parallel client-execution layer.

Decouples *what* a federated round computes (``repro.fl``) from *how*
and *when* it runs: pluggable execution backends (serial / thread /
process) that train a round's participants concurrently yet
bit-identically, order-independent per-``(round, client)`` seeding, and
a virtual clock that simulates heterogeneous device latency (stragglers,
deadlines) independently of the host's real speed.  Each
``--latency-model`` / ``--bandwidth-model`` value is one rule in
:func:`latency_factors` / :func:`link_factors` over the clock's module
constants.
"""

from repro.runtime.checkpoint import (
    SNAPSHOT_SCHEMA,
    CheckpointError,
    Checkpointer,
    load_snapshot,
    save_snapshot,
)
from repro.runtime.clock import (
    BANDWIDTH_MODELS,
    LATENCY_MODELS,
    RoundTiming,
    VirtualClock,
    latency_factors,
    link_factors,
    n_local_batches,
)
from repro.runtime.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    RoundContext,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
)
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    FaultStats,
    InjectedCrash,
    InjectedHang,
    InjectedTaskError,
    RetriesExhausted,
    RetryPolicy,
)
from repro.runtime.seeding import client_round_rng, client_round_seed

__all__ = [
    "BACKENDS",
    "BANDWIDTH_MODELS",
    "FAULT_KINDS",
    "LATENCY_MODELS",
    "SNAPSHOT_SCHEMA",
    "CheckpointError",
    "Checkpointer",
    "Executor",
    "FaultInjected",
    "FaultPlan",
    "FaultStats",
    "InjectedCrash",
    "InjectedHang",
    "InjectedTaskError",
    "RetriesExhausted",
    "RetryPolicy",
    "ProcessExecutor",
    "RoundContext",
    "RoundTiming",
    "SerialExecutor",
    "ThreadExecutor",
    "VirtualClock",
    "client_round_rng",
    "client_round_seed",
    "latency_factors",
    "link_factors",
    "load_snapshot",
    "make_executor",
    "n_local_batches",
    "save_snapshot",
]
