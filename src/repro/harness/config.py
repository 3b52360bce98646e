"""Experiment configuration: dataset × partition × method × scale.

The paper runs 1000 communication rounds of GPU training; a CPU NumPy
reproduction sweeps the same grid at reduced *scale presets*:

* ``ci`` — seconds per experiment; used by the test suite.
* ``bench`` — tens of seconds; used by the benchmark harness that
  regenerates the tables/figures.
* ``paper`` — the paper's nominal parameters (1000 rounds, full model);
  provided for completeness, expect hours on CPU.

Scale changes rounds/data/model size only — never the algorithms — so the
*shape* of the comparisons is preserved.

Every ``python -m repro`` flag is declared once, on the field it sets: the
field's ``metadata["cli"]`` is a :class:`Flag` holding the flag string (the
argparse dest derives from it), the ``--help`` text, ``choices`` (a
``VALID_*`` vocabulary, which ``__post_init__`` also checks), the argparse
``type`` (``bool`` makes a ``--x/--no-x`` pair), the metavar, the CLI
default where it differs from the field default, and the flag's position in
``--help``.  ``repro.__main__`` builds its parser and maps parsed args back
to fields by looping over :func:`cli_fields`.  A field without a ``Flag`` is
config-only (set from Python, e.g. ``lr`` or the ``drl_*`` knobs).
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, field, fields, replace
from typing import Any, Callable

from repro.data.partition import SHARDS_PER_CLIENT, check_shards_fit
from repro.fl.async_ import DELTA_MIX, DISPATCH_POLICIES, STALENESS_POLICIES
from repro.fl.robust import ATTACK_MODELS, ROBUST_AGGREGATORS
from repro.fl.wire import WIRE_CODECS
from repro.fleet import AVAILABILITY_MODELS
from repro.nn.dtypes import SUPPORTED_DTYPES
from repro.runtime import BACKENDS, BANDWIDTH_MODELS, LATENCY_MODELS

VALID_DATASETS = ("mnist", "fashion", "cifar100")
VALID_DTYPES = SUPPORTED_DTYPES
VALID_PARTITIONS = ("IID", "PA", "CE", "CN", "EQUAL", "NONEQUAL")
VALID_METHODS = ("fedavg", "fedprox", "feddrl", "singleset")
# Runtime vocabularies are owned by repro.runtime.
VALID_BACKENDS = BACKENDS
VALID_LATENCY_MODELS = LATENCY_MODELS
# Aggregation protocols: the synchronous round loop, or the async engine's
# buffered FedBuff (repro.fl.async_; FedAsync is a buffer of one).
VALID_AGGREGATIONS = ("sync", "fedbuff")
VALID_STALENESS = STALENESS_POLICIES
# Fleet-behavior vocabularies (repro.fleet): availability models and the
# async engine's dispatch policies.
VALID_AVAILABILITY = AVAILABILITY_MODELS
VALID_DISPATCH = DISPATCH_POLICIES
# Adversarial-fleet vocabularies (repro.fl.robust): attack models and
# robust aggregation rules; "none" = honest fleet, "mean" = the classic
# impact-factor-weighted mean.
VALID_ATTACKS = ("none", *ATTACK_MODELS)
VALID_AGGREGATORS = ROBUST_AGGREGATORS
# Aggregation topology (repro.fl.hierarchical).
VALID_TOPOLOGIES = ("flat", "hier")
# Wire subsystem vocabularies (repro.fl.wire): upload codecs and the
# bandwidth models that turn payload bytes into comm seconds; "none" =
# the clock's fixed per-transfer COMM_S (the historical clock).
VALID_CODECS = WIRE_CODECS
VALID_BANDWIDTH_MODELS = ("none", *BANDWIDTH_MODELS)


@dataclass(frozen=True)
class ScalePreset:
    """Size knobs shared by every experiment at a given scale."""

    name: str
    rounds: int
    n_train: int
    n_test: int
    local_epochs: int
    batch_size: int
    model: str  # "mlp" | "simple_cnn" | "vgg_mini" | "vgg11"
    image_size: int
    cifar_classes: int  # CIFAR-100 stand-in class count at this scale
    eval_every: int


SCALES: dict[str, ScalePreset] = {
    "ci": ScalePreset(
        name="ci", rounds=12, n_train=400, n_test=200, local_epochs=2,
        batch_size=20, model="mlp", image_size=8, cifar_classes=20, eval_every=1,
    ),
    "bench": ScalePreset(
        name="bench", rounds=30, n_train=1200, n_test=400, local_epochs=3,
        batch_size=20, model="mlp", image_size=8, cifar_classes=30, eval_every=1,
    ),
    "paper": ScalePreset(
        name="paper", rounds=1000, n_train=50_000, n_test=10_000, local_epochs=5,
        batch_size=10, model="auto", image_size=32, cifar_classes=100, eval_every=1,
    ),
}


@dataclass(frozen=True)
class Flag:
    """The ``python -m repro`` option that sets one config field."""

    order: int  # position among the options in --help
    flag: str  # "--per-round"
    help: str | None = None
    choices: tuple | list | None = None  # the field's vocabulary
    type: Callable | None = None  # argparse type; bool -> --x/--no-x
    metavar: str | None = None
    cli_default: Any = None  # None -> the field's default

    @property
    def dest(self) -> str:
        """The argparse dest: ``--per-round`` -> ``per_round``."""
        return self.flag[2:].replace("-", "_")


def _cli(default: Any, order: int, flag: str, help: str | None = None, **spec):
    """A config field settable from the command line (see :class:`Flag`)."""
    return field(default=default, metadata={"cli": Flag(order, flag, help, **spec)})


def _server_mix(value: str):
    """--server-mix accepts a float step or the literal 'delta'."""
    if value == DELTA_MIX:
        return value
    try:
        return float(value)
    except ValueError:
        import argparse  # only the CLI parses; runs never import argparse

        raise argparse.ArgumentTypeError(
            f"expected a float in (0, 1] or 'delta', got {value!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One cell of the paper's evaluation grid."""

    dataset: str = _cli("mnist", 1, "--dataset", choices=VALID_DATASETS)
    partition: str = _cli("CE", 2, "--partition", choices=VALID_PARTITIONS)
    method: str = _cli(
        "fedavg", 3, "--method", choices=VALID_METHODS, cli_default="feddrl"
    )
    n_clients: int = _cli(10, 5, "--clients", "population size N", type=int)
    clients_per_round: int = _cli(10, 6, "--per-round", "participants K", type=int)
    scale: str = _cli("ci", 4, "--scale", choices=sorted(SCALES), cli_default="bench")
    # non-IID level for CE/CN (Fig. 8 sweeps this)
    delta: float = _cli(0.6, 8, "--delta", "cluster-skew level for CE/CN", type=float)
    lr: float = 0.01
    prox_mu: float = 0.01
    seed: int = _cli(0, 9, "--seed", type=int)
    # Scale overrides (None -> take from the preset).
    rounds: int | None = _cli(
        None, 7, "--rounds", "override the scale preset's round count", type=int
    )
    n_train: int | None = None
    n_test: int | None = None
    local_epochs: int | None = None
    batch_size: int | None = None
    model: str | None = None
    eval_every: int | None = None
    # FedDRL knobs.  beta follows eq. (6); gamma/noise/updates are tuned for
    # the CPU-scale round counts used here (Table 1's gamma=0.99 targets
    # 1000-round runs; a shorter effective horizon and more agent updates
    # per round compensate for having ~30x fewer transitions).
    drl_beta: float = 0.5
    drl_gamma: float = 0.9
    drl_noise_scale: float = 0.05
    drl_updates_per_round: int = 8
    # Two-stage pretraining (Section 3.4.2, feddrl only): number of online
    # rounds each worker engine runs before the main agent is trained
    # offline and deployed.  0 disables pretraining (basic training only,
    # Algorithm 1).
    drl_pretrain_rounds: int = _cli(
        0, 10, "--pretrain", "two-stage pretraining rounds per worker (feddrl)",
        type=int,
    )
    drl_pretrain_workers: int = 2
    drl_offline_updates: int = 200
    # Runtime: execution backend and virtual-clock device simulation (see
    # repro.runtime).  All backends are bit-identical for a given seed;
    # every run has a virtual clock, homogeneous unless a model is named.
    backend: str = _cli(
        "serial", 11, "--backend",
        "client-execution backend (bit-identical results)", choices=VALID_BACKENDS,
    )
    workers: int | None = _cli(
        None, 12, "--workers",
        "worker count for thread/process backends (default: CPU count)", type=int,
    )
    latency_model: str = _cli(
        "homogeneous", 14, "--latency-model", "virtual-clock device latency model",
        choices=VALID_LATENCY_MODELS,
    )
    # Substrate compute dtype (repro.nn.dtypes).  float64 (the default) is
    # bit-identical to the historical all-float64 path; float32 halves
    # memory bandwidth and the process-backend IPC payload.
    dtype: str = _cli(
        "float64", 13, "--dtype",
        "substrate compute dtype; float32 halves memory bandwidth and IPC "
        "payload, float64 (default) matches historical results bit-for-bit",
        choices=VALID_DTYPES,
    )
    straggler_fraction: float = _cli(
        0.0, 15, "--straggler-fraction",
        "fraction of simulated devices that straggle", type=float,
    )
    straggler_slowdown: float = _cli(
        8.0, 16, "--straggler-slowdown",
        "slowdown factor applied to straggler devices", type=float,
    )
    deadline_s: float | None = _cli(
        None, 17, "--deadline",
        "simulated round deadline in seconds; updates that miss it are dropped",
        type=float,
    )
    # Asynchronous aggregation (repro.fl.async_).  "sync" keeps the
    # classic per-round barrier; "fedbuff" aggregates whenever buffer_size
    # updates have arrived in virtual time (buffer_size=1 with
    # server_mix=0.6 is FedAsync).  Arrival order *is* device timing, and
    # the async engine runs the same total local-work budget as sync
    # (rounds x K jobs).
    aggregation: str = _cli(
        "sync", 27, "--aggregation",
        "synchronous rounds, or the event-driven fedbuff engine, which "
        "aggregates every --buffer-size arrivals (--buffer-size 1 "
        "--server-mix 0.6 is FedAsync)",
        choices=VALID_AGGREGATIONS,
    )
    buffer_size: int = _cli(
        5, 28, "--buffer-size", "fedbuff: arrived updates per aggregation",
        type=int,
    )
    max_concurrency: int | None = _cli(  # None -> clients_per_round
        None, 29, "--max-concurrency",
        "async: max client jobs in flight (default: --per-round)", type=int,
    )
    staleness: str = _cli(
        "polynomial", 30, "--staleness",
        "async staleness-decay on impact factors", choices=VALID_STALENESS,
    )
    # Server mixing step: a float in (0, 1], "delta" for FedBuff's
    # delta-based update (w <- w + eta * mean of client deltas), or None
    # for 1.0 (the buffer's combination replaces the global model).
    server_mix: float | str | None = _cli(
        None, 31, "--server-mix",
        "async server mixing step in (0, 1], or 'delta' for FedBuff's "
        "delta-based update (default: 1.0)", type=_server_mix,
    )
    # Fleet behavior (repro.fleet): dynamic availability churn, mid-round
    # connectivity dropout, and partial local work, evolving over the
    # virtual clock.  "always" + zero dropout + completeness 1.0 disables
    # the fleet entirely.  `dispatch` picks the async engine's
    # slot-assignment policy.
    availability: str = _cli(
        "always", 32, "--availability",
        "fleet availability model: who is online as simulated time advances",
        choices=VALID_AVAILABILITY,
    )
    offline_fraction: float = _cli(
        0.2, 33, "--offline-fraction",
        "mean offline fraction for the availability model", type=float,
    )
    churn_rate: float = _cli(
        0.5, 34, "--churn-rate",
        "markov availability: on/off switching intensity (mean session "
        "length ~ 1/rate slots)", type=float,
    )
    dropout_prob: float = _cli(
        0.0, 35, "--dropout-prob",
        "per-(round, client) mid-round dropout: the update is lost after its "
        "compute time is paid", type=float,
    )
    completeness: float = _cli(
        1.0, 36, "--completeness",
        "minimum fraction of the local batch budget a client runs (sampled "
        "per round from [c, 1])", type=float,
    )
    dispatch: str = _cli(
        "random", 37, "--dispatch",
        "async job dispatch among online idle clients: uniform, or fairness "
        "(fewest jobs first)", choices=VALID_DISPATCH,
    )
    # Aggregation topology (repro.fl.hierarchical): "flat" sends every
    # update straight to the cloud; "hier" folds each round (sync) or
    # buffer window (async) into n_edges edge-server FedAvg aggregates
    # first, and the cloud strategy/defense runs over the edges (H-FL).
    topology: str = _cli(
        "flat", 38, "--topology",
        "aggregation topology: flat (clients -> cloud) or hier (clients -> "
        "edge servers -> cloud)", choices=VALID_TOPOLOGIES,
    )
    n_edges: int = _cli(
        2, 39, "--edges", "edge-server count for --topology hier", type=int
    )
    # Every run's clients are a LazyClientPool (repro.fleet.scale), so
    # "lazy" is the one value.  The field is kept only because the e2e
    # workload file benchmarks/e2e/workloads.json passes fleet_mode="lazy";
    # it goes once that file stops naming it (ROADMAP item 7).
    fleet_mode: str = "lazy"
    # Adversarial fleet (repro.fl.robust): `attack` marks a seeded
    # malicious_fraction of clients malicious and poisons their data
    # (label_flip, backdoor) or their submitted updates (sign_flip,
    # scale); attack_scale amplifies update perturbations (and, for
    # backdoor, boosts the poisoned upload when > 1).  `aggregator`
    # selects the server's combination rule — "mean" keeps the classic
    # weighted mean, the rest are robust defenses that compose with
    # staleness decay and server_mix="delta".
    attack: str = _cli(
        "none", 41, "--attack",
        "adversarial fleet: poison a seeded malicious subset's data "
        "(label_flip, backdoor) or their submitted updates (sign_flip, "
        "scale)", choices=VALID_ATTACKS,
    )
    malicious_fraction: float = _cli(
        0.2, 42, "--malicious-fraction",
        "fraction of clients the attack compromises (seeded; at least one "
        "when an attack is set)", type=float,
    )
    attack_scale: float = _cli(
        1.0, 43, "--attack-scale",
        "update-attack amplification (and backdoor model-replacement boost "
        "when > 1)", type=float,
    )
    aggregator: str = _cli(
        "mean", 44, "--aggregator",
        "server combination rule: the classic weighted mean, or a robust "
        "defense (median, trimmed_mean, krum, multikrum, norm_clip)",
        choices=VALID_AGGREGATORS,
    )
    # Observability (repro.obs): trace=PATH streams spans/metrics to one
    # JSONL trace whose header carries the run manifest; None disables
    # tracing entirely (no-op at every call site).
    # metrics_interval > 0 snapshots the metrics registry into the trace
    # every that-many simulated seconds.
    trace: str | None = _cli(
        None, 45, "--trace",
        "stream spans/metrics to a JSONL trace at PATH, the run manifest in "
        "its header (trace-summary PATH --chrome OUT converts it for "
        "Perfetto)", metavar="PATH",
    )
    metrics_interval: float = _cli(
        0.0, 46, "--metrics-interval",
        "snapshot the metrics registry into the trace every N simulated "
        "seconds (needs --trace)", type=float,
    )
    # Fault tolerance (repro.runtime.faults): seeded per-(round|job, client)
    # fault injection — a cell's *first* attempt crashes / raises / blips /
    # hangs with the given probabilities — plus the parent-side recovery
    # knobs (per-task timeout, bounded retry).  All-zero probabilities
    # inject nothing; the executors' task path is the same either way (the
    # process backend chunks its first wave only while no fault rate and
    # no task timeout is set).
    fault_crash_prob: float = _cli(
        0.0, 47, "--fault-crash",
        "per-(round, client) probability the first attempt crashes its "
        "worker (seeded, recovered bit-identically)", type=float,
    )
    fault_exception_prob: float = _cli(
        0.0, 48, "--fault-exception",
        "per-cell probability of an injected task error", type=float,
    )
    fault_hang_prob: float = _cli(
        0.0, 50, "--fault-hang", "per-cell probability of an injected hang",
        type=float,
    )
    fault_hang_s: float = _cli(
        0.05, 51, "--fault-hang-s",
        "wall seconds an injected hang stalls before raising", type=float,
    )
    task_timeout_s: float | None = _cli(
        None, 52, "--task-timeout",
        "per-task timeout in wall seconds for pooled backends (default: wait "
        "forever)", type=float,
    )
    max_retries: int = _cli(
        3, 53, "--max-retries", "bounded per-task retry budget", type=int
    )
    # Kill-safe checkpoint/resume (repro.runtime.checkpoint): atomic
    # snapshots of full run state every checkpoint_every rounds (sync) or
    # aggregation flushes (async); resume=PATH restores and continues,
    # bit-identical to an uninterrupted run.
    checkpoint_path: str | None = _cli(
        None, 54, "--checkpoint",
        "atomically snapshot full run state to PATH (kill-safe; see "
        "--checkpoint-every / --resume)", metavar="PATH",
    )
    checkpoint_every: int = _cli(
        1, 55, "--checkpoint-every",
        "snapshot every N rounds (sync) or aggregation flushes (async); needs "
        "--checkpoint", type=int,
    )
    resume: str | None = _cli(
        None, 56, "--resume",
        "restore run state from a snapshot and continue (bit-identical to an "
        "uninterrupted run)", metavar="PATH",
    )
    # Wire-efficient uploads (repro.fl.wire): `codec` compresses the
    # client→server delta ("dense" = uncompressed passthrough; topk /
    # qsgd{4,8} / topk+qsgd{4,8}, the suffix being the bit width, are lossy
    # with per-client error-feedback residuals unless error_feedback=False).  `bandwidth_model` gives
    # each client an up/down link (megabits per second) so the clock
    # charges comm_s = payload_bytes / bandwidth instead of the fixed
    # constants; "none" keeps the byte-blind historical clock.
    codec: str = _cli(
        "dense", 19, "--codec",
        "upload codec for client deltas: dense float passthrough, topk "
        "sparsification, qsgd{4,8} stochastic quantization, or topk+qsgd{4,8} "
        "composition", choices=VALID_CODECS,
    )
    topk_frac: float = _cli(
        0.01, 20, "--topk-frac", "topk codecs: fraction of coordinates kept",
        type=float,
    )
    error_feedback: bool = _cli(
        True, 22, "--error-feedback",
        "carry the lossy-codec residual into the next upload from the same "
        "client", type=bool,
    )
    bandwidth_model: str = _cli(
        "none", 23, "--bandwidth-model",
        "per-client link-rate model: comm time becomes payload_bytes / "
        "bandwidth", choices=VALID_BANDWIDTH_MODELS,
    )
    up_mbps: float = _cli(
        1.0, 24, "--up-mbps", "mean client uplink rate in Mbit/s", type=float
    )
    down_mbps: float = _cli(
        10.0, 25, "--down-mbps", "mean client downlink rate in Mbit/s",
        type=float,
    )

    def __post_init__(self) -> None:
        # NaN passes every `value <= 0`-style range check below.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name, choices in _VOCABULARIES:
            if getattr(self, name) not in choices:
                raise ValueError(f"{name} must be one of {choices}")
        for name in (
            "n_clients", "clients_per_round", "lr", "buffer_size", "n_edges",
            "drl_updates_per_round", "drl_pretrain_workers",
            "drl_offline_updates", "churn_rate", "attack_scale", "fault_hang_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in (
            "seed", "prox_mu", "metrics_interval", "drl_noise_scale",
            "max_retries",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in (
            "rounds", "n_train", "n_test", "local_epochs",
            "batch_size", "eval_every", "workers", "max_concurrency",
            "task_timeout_s",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when given")
        if self.clients_per_round > self.n_clients:
            raise ValueError("clients_per_round cannot exceed n_clients")
        if self.partition in SHARDS_PER_CLIENT and self.method != "singleset":
            check_shards_fit(self.resolved("n_train"), self.n_clients,
                             SHARDS_PER_CLIENT[self.partition])
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ValueError("straggler_fraction must be in [0, 1]")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.metrics_interval > 0 and self.trace is None:
            raise ValueError("metrics_interval needs trace=PATH to write to")
        if self.method == "feddrl" and self.deadline_s is not None:
            # The DRL agent's state and action dims are fixed at K; a round
            # that drops its stragglers' updates would hand it fewer.
            raise ValueError(
                "feddrl needs exactly K updates per round; a deadline drops "
                "the late ones"
            )
        if isinstance(self.server_mix, str):
            if self.server_mix != DELTA_MIX:
                raise ValueError(
                    f"server_mix must be a float in (0, 1] or {DELTA_MIX!r}"
                )
        elif self.server_mix is not None and not 0.0 < self.server_mix <= 1.0:
            raise ValueError("server_mix must be in (0, 1] when given")
        self._validate_drl()
        self._validate_pretrain()
        self._validate_fleet()
        self._validate_robust()
        self._validate_faults()
        self._validate_scale_out()
        self._validate_wire()
        if self.aggregation != "sync":
            if self.method == "singleset":
                raise ValueError(
                    "singleset is one client's synchronous run — "
                    "asynchronous aggregation does not apply to it"
                )
            if self.deadline_s is not None:
                raise ValueError(
                    "round deadlines are a synchronous concept — the async "
                    "engine never waits on a round barrier"
                )
            if self.max_concurrency is not None and self.max_concurrency > self.n_clients:
                raise ValueError(
                    "max_concurrency cannot exceed n_clients (a client "
                    "holds at most one job at a time)"
                )

    def _validate_drl(self) -> None:
        # The bounds DRLConfig, GaussianPolicyHead and feddrl_reward enforce,
        # checked before the dataset is built.
        if not 0.0 <= self.drl_gamma < 1.0:
            raise ValueError("drl_gamma must be in [0, 1)")
        if not 0.0 <= self.drl_beta <= 1.0:
            raise ValueError("drl_beta must be in [0, 1] (paper Section 3.3.3)")

    def _validate_pretrain(self) -> None:
        if self.drl_pretrain_rounds < 0:
            raise ValueError(
                "drl_pretrain_rounds must be non-negative (0 disables "
                "pretraining)"
            )
        if self.drl_pretrain_rounds > 0 and self.method != "feddrl":
            raise ValueError(
                "drl_pretrain_rounds pretrains the FedDRL agent — "
                f"method={self.method!r} has no agent to pretrain"
            )
        jobs = (self.drl_pretrain_rounds + 1) * self.clients_per_round
        if (self.drl_pretrain_rounds > 0 and self.aggregation == "fedbuff"
                and jobs < 2 * self.buffer_size):
            raise ValueError(
                "drl_pretrain_rounds is too small for fedbuff: a worker runs "
                f"(drl_pretrain_rounds + 1) x clients_per_round = {jobs} jobs, "
                "and one transition takes two buffer flushes "
                f"({2 * self.buffer_size} jobs)"
            )

    def _validate_fleet(self) -> None:
        if not 0.0 <= self.offline_fraction < 1.0:
            raise ValueError("offline_fraction must be in [0, 1)")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ValueError("dropout_prob must be in [0, 1)")
        if not 0.0 < self.completeness <= 1.0:
            raise ValueError("completeness must be in (0, 1]")
        if self.dispatch != "random" and self.aggregation == "sync":
            raise ValueError(
                "dispatch policies apply to the async engine only — "
                "synchronous rounds select participants, they do not "
                "dispatch jobs"
            )
        if not self.fleet_active:
            return
        if self.method == "feddrl" and self.aggregation == "sync":
            raise ValueError(
                "feddrl needs exactly K updates per synchronous round; an "
                "unreliable fleet cannot guarantee that — use "
                "aggregation='fedbuff' (the agent is built for "
                "K=buffer_size and buffers fill from whoever arrives)"
            )

    def _validate_scale_out(self) -> None:
        if self.topology == "hier":
            if self.method == "singleset":
                raise ValueError(
                    "singleset trains one client — there is nothing to "
                    "fold into edges"
                )
            window = (
                self.buffer_size if self.aggregation == "fedbuff"
                else self.clients_per_round
            )
            if self.n_edges > window:
                raise ValueError(
                    f"n_edges={self.n_edges} exceeds the aggregation window "
                    f"({window} updates) — every edge needs at least one "
                    "member"
                )
            if self.method == "feddrl" and self.aggregation == "fedbuff":
                raise ValueError(
                    "feddrl needs a fixed participation level; under "
                    "fedbuff a fast client can land twice in one window, "
                    "leaving fewer than n_edges distinct edges — use "
                    "topology='hier' with aggregation='sync'"
                )
        if self.fleet_mode != "lazy":
            raise ValueError(
                "fleet_mode must be 'lazy': every run builds its clients "
                "on demand"
            )

    def _validate_robust(self) -> None:
        if not 0.0 <= self.malicious_fraction < 0.5:
            raise ValueError(
                "malicious_fraction must be in [0, 0.5) — no robust "
                "aggregator survives a malicious majority"
            )
        if self.attack != "none" and self.malicious_fraction == 0.0:
            raise ValueError(
                "an attack needs a positive malicious_fraction — "
                "nobody is compromised at 0.0"
            )
        if self.method == "singleset" and self.attack != "none":
            raise ValueError(
                "singleset trains one client on the whole training set — "
                "an attack would compromise all of it"
            )
        weigher = (
            f"aggregator={self.aggregator!r}" if self.aggregator != "mean"
            else "feddrl" if self.method == "feddrl" else None
        )
        if weigher is not None and self.window_voices < 2:
            # One update per window: every rule returns it unchanged.
            raise ValueError(
                f"{weigher} weighs a window's updates against each other, but "
                "every window here holds one (--per-round, --buffer-size or "
                "--edges sets how many)"
            )

    def _validate_faults(self) -> None:
        probs = (
            self.fault_crash_prob, self.fault_exception_prob, self.fault_hang_prob,
        )
        for p in probs:
            if not 0.0 <= p < 1.0:
                raise ValueError("fault probabilities must be in [0, 1)")
        if sum(probs) >= 1.0:
            raise ValueError("fault probabilities must sum below 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_every != 1 and self.checkpoint_path is None:
            raise ValueError("checkpoint_every needs checkpoint_path to write to")

    def _validate_wire(self) -> None:
        if not 0.0 < self.topk_frac <= 1.0:
            raise ValueError("topk_frac must be in (0, 1]")
        if self.up_mbps <= 0 or self.down_mbps <= 0:
            raise ValueError("up_mbps/down_mbps must be positive")

    # -- resolved views ------------------------------------------------------
    @property
    def wire_active(self) -> bool:
        """True when uploads are compressed or bytes drive comm time."""
        return self.codec != "dense" or self.bandwidth_model != "none"

    @property
    def faults_active(self) -> bool:
        """True when any fault-injection probability is positive."""
        return (
            self.fault_crash_prob + self.fault_exception_prob + self.fault_hang_prob
        ) > 0.0

    @property
    def fleet_active(self) -> bool:
        """True when any fleet-behavior axis departs from the ideal fleet."""
        return (
            self.availability != "always"
            or self.dropout_prob > 0.0
            or self.completeness < 1.0
        )

    @property
    def window_voices(self) -> int:
        """Updates the server combines per window: the edge aggregates
        under hier, else the buffer (fedbuff) or the round's participants
        (sync); singleset has one client."""
        if self.method == "singleset":
            return 1
        if self.topology == "hier":
            return self.n_edges
        if self.aggregation == "fedbuff":
            return self.buffer_size
        return self.clients_per_round

    @property
    def robust_active(self) -> bool:
        """True when an attack or a non-mean aggregation rule is configured."""
        return self.attack != "none" or self.aggregator != "mean"

    @property
    def preset(self) -> ScalePreset:
        return SCALES[self.scale]

    def resolved(self, name: str):
        """Field value with the scale preset as fallback."""
        value = getattr(self, name)
        return getattr(self.preset, name) if value is None else value

    @property
    def effective_labels_per_client(self) -> int:
        """Paper defaults: 2 labels/client, 20 for CIFAR-100 under PA."""
        if self.dataset == "cifar100" and self.partition == "PA":
            # Paper: 20 labels/client for CIFAR-100. Scale proportionally to
            # the stand-in's class count (20/100 of the classes).
            return max(2, self.preset.cifar_classes // 5)
        return 2

    @property
    def effective_model(self) -> str:
        model = self.resolved("model")
        if model != "auto":
            return model
        return "vgg11" if self.dataset == "cifar100" else "simple_cnn"

    def with_(self, **kwargs) -> "ExperimentConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)


def cli_fields() -> list[tuple[Field, Flag]]:
    """``(field, flag)`` for every field ``python -m repro`` sets, in --help order."""
    flagged = [
        (f, f.metadata["cli"]) for f in fields(ExperimentConfig) if "cli" in f.metadata
    ]
    return sorted(flagged, key=lambda pair: pair[1].order)


# (field name, vocabulary) for every field whose flag declares choices.
_VOCABULARIES = tuple(
    (f.name, flag.choices) for f, flag in cli_fields() if flag.choices is not None
)
