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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.fl.async_ import (
    AGGREGATION_MODES,
    DELTA_MIX,
    DISPATCH_POLICIES,
    STALENESS_POLICIES,
)
from repro.fl.robust import ATTACK_MODELS, ROBUST_AGGREGATORS
from repro.fl.wire import QUANT_BITS, WIRE_CODECS
from repro.fleet import AVAILABILITY_MODELS
from repro.nn.dtypes import SUPPORTED_DTYPES
from repro.runtime import (
    BACKENDS,
    BANDWIDTH_MODELS,
    DEADLINE_POLICIES,
    LATENCY_MODELS,
)

VALID_DATASETS = ("mnist", "fashion", "cifar100")
VALID_DTYPES = SUPPORTED_DTYPES
VALID_PARTITIONS = ("IID", "PA", "CE", "CN", "EQUAL", "NONEQUAL")
VALID_METHODS = ("fedavg", "fedprox", "feddrl", "singleset")
# Runtime vocabularies are owned by repro.runtime; "none" = no virtual clock.
VALID_BACKENDS = BACKENDS
VALID_LATENCY_MODELS = ("none", *LATENCY_MODELS)
VALID_DEADLINE_POLICIES = DEADLINE_POLICIES
# Aggregation protocols: the synchronous round loop, or the async engine's
# buffered (fedbuff) / per-arrival (fedasync) modes (repro.fl.async_).
VALID_AGGREGATIONS = ("sync", *AGGREGATION_MODES)
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
# Aggregation topology (repro.fl.hierarchical) and client materialization
# (repro.fleet.scale).
VALID_TOPOLOGIES = ("flat", "hier")
VALID_FLEET_MODES = ("eager", "lazy")
# Wire subsystem vocabularies (repro.fl.wire): upload codecs and the
# bandwidth models that turn payload bytes into comm seconds; "none" =
# fixed upload_s/download_s constants (the historical clock).
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
class ExperimentConfig:
    """One cell of the paper's evaluation grid."""

    dataset: str = "mnist"
    partition: str = "CE"
    method: str = "fedavg"
    n_clients: int = 10
    clients_per_round: int = 10
    scale: str = "ci"
    delta: float = 0.6  # non-IID level for CE/CN (Fig. 8 sweeps this)
    labels_per_client: int | None = None  # None -> paper default per dataset
    lr: float = 0.01
    prox_mu: float = 0.01
    seed: int = 0
    # Scale overrides (None -> take from the preset).
    rounds: int | None = None
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
    drl_explore: bool = True
    drl_prioritized: bool = True
    drl_gamma: float = 0.9
    drl_noise_scale: float = 0.05
    drl_updates_per_round: int = 8
    fairness_weight: float = 1.0
    # Two-stage pretraining (Section 3.4.2, feddrl only): number of online
    # rounds each worker engine runs before the main agent is trained
    # offline and deployed.  0 disables pretraining (basic training only,
    # Algorithm 1).
    drl_pretrain_rounds: int = 0
    drl_pretrain_workers: int = 2
    drl_offline_updates: int = 200
    # Runtime: execution backend and virtual-clock device simulation (see
    # repro.runtime).  All backends are bit-identical for a given seed;
    # latency_model="none" disables the virtual clock entirely.
    backend: str = "serial"
    workers: int | None = None
    latency_model: str = "none"
    # Substrate compute dtype (repro.nn.dtypes).  float64 (the default) is
    # bit-identical to the historical all-float64 path; float32 halves
    # memory bandwidth and the process-backend IPC payload.
    dtype: str = "float64"
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 8.0
    deadline_s: float | None = None
    deadline_policy: str = "wait"
    # Asynchronous aggregation (repro.fl.async_).  "sync" keeps the
    # classic per-round barrier; "fedbuff" aggregates whenever buffer_size
    # updates have arrived in virtual time; "fedasync" on every arrival.
    # Async modes need a latency_model (arrival order *is* device timing)
    # and run the same total local-work budget as sync (rounds x K jobs).
    aggregation: str = "sync"
    buffer_size: int = 5
    max_concurrency: int | None = None  # None -> clients_per_round
    staleness: str = "polynomial"
    # Server mixing step: a float in (0, 1], "delta" for FedBuff's
    # delta-based update (w <- w + eta * mean of client deltas), or None
    # for the mode default (1.0 fedbuff / 0.6 fedasync).
    server_mix: float | str | None = None
    # Fleet behavior (repro.fleet): dynamic availability churn, mid-round
    # connectivity dropout, and partial local work.  "always" + zero
    # dropout + completeness 1.0 disables the fleet entirely; anything
    # else needs a latency_model (fleet behavior evolves over the virtual
    # clock).  `dispatch` picks the async engine's slot-assignment policy.
    availability: str = "always"
    offline_fraction: float = 0.2
    churn_rate: float = 0.5
    dropout_prob: float = 0.0
    completeness: float = 1.0
    dispatch: str = "random"
    # Aggregation topology (repro.fl.hierarchical): "flat" sends every
    # update straight to the cloud; "hier" folds each round (sync) or
    # buffer window (async) into n_edges edge-server FedAvg aggregates
    # first, and the cloud strategy/defense runs over the edges (H-FL).
    topology: str = "flat"
    n_edges: int = 2
    # Client materialization (repro.fleet.scale): "eager" builds every
    # Client object up front (the historical path); "lazy" keeps the
    # population virtual and materializes only each round's sampled
    # participants (bit-identical histories, O(K) resident clients).
    fleet_mode: str = "eager"
    # Adversarial fleet (repro.fl.robust): `attack` marks a seeded
    # malicious_fraction of clients malicious and poisons their data
    # (label_flip, backdoor) or their submitted updates (sign_flip,
    # scale, ipm); attack_scale amplifies update perturbations (and, for
    # backdoor, boosts the poisoned upload when > 1).  `aggregator`
    # selects the server's combination rule — "mean" keeps the classic
    # weighted mean, the rest are robust defenses that compose with
    # staleness decay and server_mix="delta".
    attack: str = "none"
    malicious_fraction: float = 0.2
    attack_scale: float = 1.0
    aggregator: str = "mean"
    # Observability (repro.obs): trace=PATH streams spans/metrics to a
    # JSONL trace (plus a Chrome trace and a run manifest next to it);
    # None disables tracing entirely (no-op at every call site).
    # metrics_interval > 0 snapshots the metrics registry into the trace
    # every that-many simulated seconds.
    trace: str | None = None
    metrics_interval: float = 0.0
    # Fault tolerance (repro.runtime.faults): seeded per-(round|job, client)
    # fault injection — a cell's *first* attempt crashes / raises / blips /
    # hangs with the given probabilities — plus the parent-side recovery
    # knobs (per-task timeout, bounded retry).  All-zero probabilities
    # inject nothing; the executors' task path is the same either way (the
    # process backend chunks its first wave only while no fault rate and
    # no task timeout is set).
    fault_crash_prob: float = 0.0
    fault_exception_prob: float = 0.0
    fault_transient_prob: float = 0.0
    fault_hang_prob: float = 0.0
    fault_hang_s: float = 0.05
    task_timeout_s: float | None = None
    max_retries: int = 3
    # Kill-safe checkpoint/resume (repro.runtime.checkpoint): atomic
    # snapshots of full run state every checkpoint_every rounds (sync) or
    # aggregation flushes (async); resume=PATH restores and continues,
    # bit-identical to an uninterrupted run.
    checkpoint_path: str | None = None
    checkpoint_every: int = 1
    resume: str | None = None
    # Wire-efficient uploads (repro.fl.wire): `codec` compresses the
    # client→server delta ("dense" = uncompressed passthrough; topk /
    # qsgd{4,8} / topk+qsgd{4,8} are lossy with per-client error-feedback
    # residuals unless error_feedback=False).  `bandwidth_model` gives
    # each client an up/down link (megabits per second) so the clock
    # charges comm_s = payload_bytes / bandwidth instead of the fixed
    # constants; "none" keeps the byte-blind historical clock.
    # straggler_comm_slowdown decouples a straggler's link slowdown from
    # its compute slowdown (None -> same factor, the legacy behavior).
    codec: str = "dense"
    topk_frac: float = 0.01
    quant_bits: int = 8
    error_feedback: bool = True
    bandwidth_model: str = "none"
    up_mbps: float = 1.0
    down_mbps: float = 10.0
    straggler_comm_slowdown: float | None = None

    def __post_init__(self) -> None:
        if self.dataset not in VALID_DATASETS:
            raise ValueError(f"dataset must be one of {VALID_DATASETS}")
        if self.partition not in VALID_PARTITIONS:
            raise ValueError(f"partition must be one of {VALID_PARTITIONS}")
        if self.method not in VALID_METHODS:
            raise ValueError(f"method must be one of {VALID_METHODS}")
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {sorted(SCALES)}")
        if self.clients_per_round > self.n_clients:
            raise ValueError("clients_per_round cannot exceed n_clients")
        if self.rounds is not None and self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.backend not in VALID_BACKENDS:
            raise ValueError(f"backend must be one of {VALID_BACKENDS}")
        if self.dtype not in VALID_DTYPES:
            raise ValueError(f"dtype must be one of {VALID_DTYPES}")
        if self.workers is not None and self.workers <= 0:
            raise ValueError("workers must be positive when given")
        if self.latency_model not in VALID_LATENCY_MODELS:
            raise ValueError(f"latency_model must be one of {VALID_LATENCY_MODELS}")
        if self.deadline_policy not in VALID_DEADLINE_POLICIES:
            raise ValueError(f"deadline_policy must be one of {VALID_DEADLINE_POLICIES}")
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ValueError("straggler_fraction must be in [0, 1]")
        if self.straggler_slowdown < 1.0:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.metrics_interval < 0:
            raise ValueError("metrics_interval must be non-negative")
        if self.metrics_interval > 0 and self.trace is None:
            raise ValueError("metrics_interval needs trace=PATH to write to")
        if self.deadline_policy == "drop" and self.deadline_s is None:
            raise ValueError("deadline_policy='drop' requires deadline_s")
        if self.latency_model == "none" and (
            self.deadline_s is not None
            or self.deadline_policy != "wait"
            or self.straggler_fraction > 0
            or self.straggler_comm_slowdown is not None
        ):
            raise ValueError(
                "deadline/straggler settings have no effect without a "
                "latency_model — pick one of "
                f"{tuple(m for m in VALID_LATENCY_MODELS if m != 'none')}"
            )
        if self.method == "feddrl" and self.deadline_policy == "drop":
            # The DRL agent's state and action dims are fixed at K; a round
            # that drops its stragglers' updates would hand it fewer.
            raise ValueError(
                "feddrl needs exactly K updates per round; "
                "deadline_policy='drop' is unsupported for it (use 'wait')"
            )
        if self.aggregation not in VALID_AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {VALID_AGGREGATIONS}")
        if self.staleness not in VALID_STALENESS:
            raise ValueError(f"staleness must be one of {VALID_STALENESS}")
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if self.max_concurrency is not None and self.max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive when given")
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
            if self.latency_model == "none":
                raise ValueError(
                    "asynchronous aggregation needs a latency_model — "
                    "arrival order is defined by simulated device timing; "
                    "pick one of "
                    f"{tuple(m for m in VALID_LATENCY_MODELS if m != 'none')}"
                )
            if self.deadline_s is not None or self.deadline_policy != "wait":
                raise ValueError(
                    "round deadlines are a synchronous concept — the async "
                    "engine never waits on a round barrier"
                )
            if self.method == "feddrl" and self.aggregation == "fedasync":
                raise ValueError(
                    "feddrl needs a fixed participation level; fedasync "
                    "aggregates single updates (use fedbuff, where the "
                    "agent is built for K=buffer_size)"
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
        if self.drl_noise_scale < 0:
            raise ValueError("drl_noise_scale must be non-negative")
        if self.drl_updates_per_round <= 0:
            raise ValueError("drl_updates_per_round must be positive")
        if self.fairness_weight < 0:
            raise ValueError("fairness_weight must be non-negative")

    def _validate_pretrain(self) -> None:
        if self.drl_pretrain_rounds < 0:
            raise ValueError(
                "drl_pretrain_rounds must be non-negative (0 disables "
                "pretraining)"
            )
        if self.drl_pretrain_workers <= 0:
            raise ValueError("drl_pretrain_workers must be positive")
        if self.drl_offline_updates <= 0:
            raise ValueError("drl_offline_updates must be positive")
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
        if self.availability not in VALID_AVAILABILITY:
            raise ValueError(f"availability must be one of {VALID_AVAILABILITY}")
        if self.dispatch not in VALID_DISPATCH:
            raise ValueError(f"dispatch must be one of {VALID_DISPATCH}")
        if not 0.0 <= self.offline_fraction < 1.0:
            raise ValueError("offline_fraction must be in [0, 1)")
        if self.churn_rate <= 0.0:
            raise ValueError("churn_rate must be positive")
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
        if self.latency_model == "none":
            raise ValueError(
                "fleet behavior (availability/dropout/completeness) evolves "
                "over the virtual clock — pick a latency_model, one of "
                f"{tuple(m for m in VALID_LATENCY_MODELS if m != 'none')}"
            )
        if self.method == "feddrl" and self.aggregation == "sync":
            raise ValueError(
                "feddrl needs exactly K updates per synchronous round; an "
                "unreliable fleet cannot guarantee that — use "
                "aggregation='fedbuff' (the agent is built for "
                "K=buffer_size and buffers fill from whoever arrives)"
            )

    def _validate_scale_out(self) -> None:
        if self.topology not in VALID_TOPOLOGIES:
            raise ValueError(f"topology must be one of {VALID_TOPOLOGIES}")
        if self.n_edges <= 0:
            raise ValueError("n_edges must be positive")
        if self.fleet_mode not in VALID_FLEET_MODES:
            raise ValueError(f"fleet_mode must be one of {VALID_FLEET_MODES}")
        if self.topology == "hier":
            if self.method == "singleset":
                raise ValueError(
                    "singleset trains one client — there is nothing to "
                    "fold into edges"
                )
            if self.aggregation == "fedasync":
                raise ValueError(
                    "fedasync flushes one update at a time — there is "
                    "nothing to fold into edges; use sync or fedbuff"
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
        if self.fleet_mode == "lazy":
            if self.attack != "none":
                raise ValueError(
                    "attacks poison client shards at build time, which "
                    "materializes the whole fleet — use fleet_mode='eager'"
                )
            if self.availability == "label_skew":
                raise ValueError(
                    "label_skew availability reads every client's labels at "
                    "build time — use fleet_mode='eager' or another "
                    "availability model"
                )

    def _validate_robust(self) -> None:
        if self.attack not in VALID_ATTACKS:
            raise ValueError(f"attack must be one of {VALID_ATTACKS}")
        if self.aggregator not in VALID_AGGREGATORS:
            raise ValueError(f"aggregator must be one of {VALID_AGGREGATORS}")
        if not 0.0 <= self.malicious_fraction < 0.5:
            raise ValueError(
                "malicious_fraction must be in [0, 0.5) — no robust "
                "aggregator survives a malicious majority"
            )
        if self.attack_scale <= 0:
            raise ValueError("attack_scale must be positive")
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

    def _validate_faults(self) -> None:
        probs = (
            self.fault_crash_prob, self.fault_exception_prob,
            self.fault_transient_prob, self.fault_hang_prob,
        )
        for p in probs:
            if not 0.0 <= p < 1.0:
                raise ValueError("fault probabilities must be in [0, 1)")
        if sum(probs) >= 1.0:
            raise ValueError("fault probabilities must sum below 1")
        if self.fault_hang_s <= 0:
            raise ValueError("fault_hang_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive when given")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.checkpoint_every != 1 and self.checkpoint_path is None:
            raise ValueError("checkpoint_every needs checkpoint_path to write to")

    def _validate_wire(self) -> None:
        if self.codec not in VALID_CODECS:
            raise ValueError(f"codec must be one of {VALID_CODECS}")
        if not 0.0 < self.topk_frac <= 1.0:
            raise ValueError("topk_frac must be in (0, 1]")
        if self.quant_bits not in QUANT_BITS:
            raise ValueError(f"quant_bits must be one of {QUANT_BITS}")
        if self.bandwidth_model not in VALID_BANDWIDTH_MODELS:
            raise ValueError(
                f"bandwidth_model must be one of {VALID_BANDWIDTH_MODELS}"
            )
        if self.up_mbps <= 0 or self.down_mbps <= 0:
            raise ValueError("up_mbps/down_mbps must be positive")
        if (
            self.straggler_comm_slowdown is not None
            and self.straggler_comm_slowdown < 1.0
        ):
            raise ValueError("straggler_comm_slowdown must be >= 1 when given")
        if self.bandwidth_model != "none" and self.latency_model == "none":
            raise ValueError(
                "a bandwidth model drives the virtual clock's comm phases — "
                "pick a latency_model, one of "
                f"{tuple(m for m in VALID_LATENCY_MODELS if m != 'none')}"
            )

    # -- resolved views ------------------------------------------------------
    @property
    def wire_active(self) -> bool:
        """True when uploads are compressed or bytes drive comm time."""
        return self.codec != "dense" or self.bandwidth_model != "none"

    @property
    def faults_active(self) -> bool:
        """True when any fault-injection probability is positive."""
        return (
            self.fault_crash_prob + self.fault_exception_prob
            + self.fault_transient_prob + self.fault_hang_prob
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
        if self.labels_per_client is not None:
            return self.labels_per_client
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
