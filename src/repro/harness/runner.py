"""Experiment runner: config -> dataset -> partition -> simulation -> result."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.partition import get_partitioner
from repro.data.synthetic import cifar100_like, fashion_like, mnist_like
from repro.fl.async_ import AsyncFederatedServer
from repro.fl.client import make_clients
from repro.fl.robust import AttackModel, RobustAggregator
from repro.fl.simulation import FederatedSimulation, FLConfig, History
from repro.fl.strategies import FedAvg, FedDRL, FedProx, Strategy
from repro.fl.wire import WireFormat
from repro.fleet import ColumnarAvailability, FleetSimulator
from repro.harness.checkpoint import checkpoint_fingerprint, validate_resume
from repro.harness.config import ExperimentConfig
from repro.nn.dtypes import default_dtype, set_default_dtype
from repro.obs import Tracer, write_run_artifacts
from repro.nn.models import mlp, simple_cnn, vgg11, vgg_mini
from repro.runtime import (
    Checkpointer,
    FaultPlan,
    RetryPolicy,
    VirtualClock,
    load_snapshot,
    make_executor,
)
from repro.runtime.seeding import STREAM_AGENT, STREAM_PARTITION, STREAM_PRETRAIN, run_rng


@dataclass
class ExperimentResult:
    """Outcome of one experiment cell."""

    config: ExperimentConfig
    best_accuracy: float | None  # None: no window closed, so none was evaluated
    history: History
    wall_time_s: float
    extra: dict | None = None


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------

def build_dataset(cfg: ExperimentConfig) -> tuple[ArrayDataset, ArrayDataset]:
    """Instantiate the synthetic stand-in named by the config."""
    n_train = cfg.resolved("n_train")
    n_test = cfg.resolved("n_test")
    size = cfg.preset.image_size
    if cfg.dataset == "mnist":
        return mnist_like(n_train, n_test, seed=cfg.seed, image_size=size)
    if cfg.dataset == "fashion":
        return fashion_like(n_train, n_test, seed=cfg.seed, image_size=size)
    return cifar100_like(
        n_train, n_test, seed=cfg.seed, image_size=size,
        num_classes=cfg.preset.cifar_classes,
    )


def build_model_factory(cfg: ExperimentConfig, train_set: ArrayDataset):
    """Return ``factory(rng) -> Sequential`` for the config's model."""
    channels = train_set.x.shape[1]
    image_size = train_set.x.shape[2]
    classes = train_set.num_classes
    name = cfg.effective_model
    if name == "mlp":
        features = int(np.prod(train_set.x.shape[1:]))
        return partial(mlp, features, classes, hidden=(64, 32))
    if name == "simple_cnn":
        return partial(simple_cnn, channels, image_size, classes)
    if name == "vgg_mini":
        return partial(vgg_mini, channels, image_size, classes)
    if name == "vgg11":
        return partial(vgg11, channels, image_size, classes)
    raise ValueError(f"unknown model {name!r}")


def build_partition(
    cfg: ExperimentConfig, labels: np.ndarray, rng: np.random.Generator
) -> list[np.ndarray]:
    """Apply the config's partitioner with its paper parameters."""
    part = get_partitioner(cfg.partition)
    if cfg.partition == "PA":
        return part(labels, cfg.n_clients, rng,
                    labels_per_client=cfg.effective_labels_per_client)
    if cfg.partition in ("CE", "CN"):
        return part(labels, cfg.n_clients, rng, delta=cfg.delta,
                    labels_per_client=cfg.effective_labels_per_client)
    return part(labels, cfg.n_clients, rng)


def build_strategy(cfg: ExperimentConfig) -> Strategy:
    """Instantiate the aggregation strategy for a federated method.

    FedDRL's agent is built for the updates one window holds
    (:attr:`~repro.harness.config.ExperimentConfig.window_voices`): one
    per edge server under hier, a *buffer* of them under fedbuff.
    """
    if cfg.method == "fedavg":
        return FedAvg()
    if cfg.method == "fedprox":
        return FedProx(mu=cfg.prox_mu)
    if cfg.method == "feddrl":
        from repro.drl.agent import DRLConfig

        drl_cfg = DRLConfig(
            beta=cfg.drl_beta,
            gamma=cfg.drl_gamma,
            noise_scale=cfg.drl_noise_scale,
            noise_decay=0.99,
            updates_per_round=cfg.drl_updates_per_round,
            # CPU-scale runs have ~30-100 transitions total (vs 1000 in the
            # paper), so agent training must start almost immediately.
            min_buffer=8,
            batch_size=16,
        )
        agent = None
        if cfg.drl_pretrain_rounds > 0:
            agent = pretrain_feddrl_agent(cfg, drl_cfg)
        return FedDRL(
            clients_per_round=cfg.window_voices,
            drl_config=drl_cfg,
            agent=agent,
            seed=cfg.seed,
        )
    raise ValueError(f"{cfg.method!r} is not a federated strategy")


def pretrain_feddrl_agent(cfg: ExperimentConfig, drl_cfg):
    """Two-stage pretraining (Section 3.4.2): online workers, offline main agent.

    Stage 1: each worker is an ordinary engine run of the config on its own
    seed, drawn from the run's ``STREAM_PRETRAIN`` generator (so its own
    dataset and partition realisation), whose fresh FedDRL
    strategy explores and trains online.  Workers run one after another on
    the run's backend, topology and aggregation, so their agents have the
    evaluation agent's K.  The extra round yields the first state: a sync
    worker stores exactly ``drl_pretrain_rounds`` transitions.  Stage 2:
    the worker buffers merge in worker order and train a fresh main agent
    offline, which starts the evaluation run with a reduced exploration
    scale since it already carries a trained policy.
    """
    from repro.drl.agent import DDPGAgent
    from repro.drl.two_stage import train_offline

    rounds = cfg.drl_pretrain_rounds + 1
    worker_seeds = run_rng(cfg.seed, STREAM_PRETRAIN).integers(
        2**32, size=cfg.drl_pretrain_workers)
    main_agent = None
    for seed in worker_seeds:
        # Nobody reads a worker's test accuracy, hence the sparsest
        # evaluation schedule (eval_every = rounds).
        wcfg = cfg.with_(
            seed=int(seed), drl_pretrain_rounds=0, rounds=rounds, eval_every=rounds,
        )
        with build_simulation(wcfg) as sim:
            sim.run()
        worker = sim.strategy.agent
        if main_agent is None:
            main_agent = DDPGAgent(
                worker.state_dim, worker.n_clients, drl_cfg,
                rng=run_rng(cfg.seed, STREAM_AGENT),
            )
        main_agent.buffer.merge(worker.buffer)
    train_offline(main_agent, main_agent.buffer, cfg.drl_offline_updates)
    main_agent.noise_scale = min(main_agent.noise_scale, 0.05)
    return main_agent


def build_fault_plan(cfg: ExperimentConfig) -> FaultPlan | None:
    """The seeded fault-injection plan, or None when all rates are zero."""
    if not cfg.faults_active:
        return None
    return FaultPlan(
        seed=cfg.seed,
        crash_prob=cfg.fault_crash_prob,
        exception_prob=cfg.fault_exception_prob,
        hang_prob=cfg.fault_hang_prob,
        hang_s=cfg.fault_hang_s,
    )


def build_retry_policy(cfg: ExperimentConfig) -> RetryPolicy:
    """The executors' recovery policy from the config's knobs."""
    return RetryPolicy(
        max_retries=cfg.max_retries,
        task_timeout_s=cfg.task_timeout_s,
    )


def build_executor(cfg: ExperimentConfig, clients, model_factory):
    """The execution backend named by ``cfg.backend`` (see repro.runtime)."""
    return make_executor(cfg.backend, clients, model_factory, workers=cfg.workers)


def build_clock(cfg: ExperimentConfig) -> VirtualClock:
    """The virtual device clock."""
    return VirtualClock(
        cfg.latency_model,
        cfg.n_clients,
        seed=cfg.seed,
        deadline_s=cfg.deadline_s,
        straggler_fraction=cfg.straggler_fraction,
        straggler_slowdown=cfg.straggler_slowdown,
        bandwidth=None if cfg.bandwidth_model == "none" else cfg.bandwidth_model,
        up_mbps=cfg.up_mbps,
        down_mbps=cfg.down_mbps,
    )


def build_wire(cfg: ExperimentConfig) -> WireFormat | None:
    """The wire format, or None when nothing about uploads is configured.

    Built for the dense codec too when a bandwidth model is active: the
    clock needs payload bytes to charge ``bytes / bandwidth`` comm time,
    and dense transmits are a counting-only passthrough (bit-identical
    updates).
    """
    if not cfg.wire_active:
        return None
    return WireFormat(cfg.codec, cfg.seed, topk_frac=cfg.topk_frac,
                      error_feedback=cfg.error_feedback)


def build_fleet(cfg: ExperimentConfig) -> FleetSimulator | None:
    """The fleet-behavior simulator, or None for an ideal fleet."""
    if not cfg.fleet_active:
        return None
    model = ColumnarAvailability(
        cfg.availability,
        n_clients=cfg.n_clients,
        seed=cfg.seed,
        offline_fraction=cfg.offline_fraction,
        churn_rate=cfg.churn_rate,
    )
    return FleetSimulator(
        cfg.n_clients,
        model,
        seed=cfg.seed,
        dropout_prob=cfg.dropout_prob,
        completeness=cfg.completeness,
    )


def build_attack(cfg: ExperimentConfig) -> AttackModel | None:
    """The adversarial scenario, or None for an honest fleet.

    The attack derives everything from the experiment seed through the
    dedicated ``STREAM_MALICIOUS`` / ``STREAM_ATTACK`` streams, so who is
    compromised and how their updates are perturbed is bit-identical
    across execution backends.
    """
    if cfg.attack == "none":
        return None
    return AttackModel(
        cfg.attack,
        n_clients=cfg.n_clients,
        malicious_fraction=cfg.malicious_fraction,
        seed=cfg.seed,
        scale=cfg.attack_scale,
    )


def build_defense(cfg: ExperimentConfig) -> RobustAggregator | None:
    """The robust aggregation rule, or None for the classic weighted mean
    (None keeps the engines on their historical bit-exact path).

    The defender's assumed byzantine fraction — Krum's ``f`` and the
    trimmed mean's trim depth — follows the configured threat level when
    an attack is active, and a conservative 20% otherwise, with a 1.5x
    headroom factor: under availability churn the *per-round* malicious
    fraction fluctuates above the fleet-wide rate (two compromised
    clients in a five-strong round is 40%, not 20%), and a trim depth
    budgeted on the fleet average lets a coordinated minority slip one
    boosted update into the kept band.
    """
    if cfg.aggregator == "mean":
        return None
    assumed = cfg.malicious_fraction if cfg.attack != "none" else 0.2
    budget = min(0.45, 1.5 * assumed)
    return RobustAggregator(
        cfg.aggregator,
        trim_fraction=budget,
        byzantine_fraction=budget,
    )


def build_fl_config(cfg: ExperimentConfig) -> FLConfig:
    return FLConfig(
        rounds=cfg.resolved("rounds"),
        clients_per_round=cfg.clients_per_round,
        local_epochs=cfg.resolved("local_epochs"),
        lr=cfg.lr,
        batch_size=cfg.resolved("batch_size"),
        eval_every=cfg.resolved("eval_every"),
        seed=cfg.seed,
    )


def singleset_run(cfg: ExperimentConfig) -> ExperimentConfig:
    """SingleSet (Tables 3-4) — all the clients' data on one machine — as
    the engine run it is: synchronous FedAvg over one client that holds
    the whole training set (an IID split into one shard, so ``n_k / Σn =
    1`` and the aggregate is that client's weights), one local epoch per
    round, evaluated every round.  Its epoch budget is one client's share
    of the federated run's gradient work times the round count."""
    epochs = max(1, cfg.resolved("rounds") * cfg.resolved("local_epochs") // 10)
    return cfg.with_(
        method="fedavg", partition="IID", n_clients=1, clients_per_round=1,
        rounds=epochs, local_epochs=1, eval_every=1,
    )


def build_simulation(
    cfg: ExperimentConfig, tracer: Tracer | None = None
) -> FederatedSimulation | AsyncFederatedServer:
    """Everything up to (but not including) ``run()`` — used by figures that
    need access to the live simulation.

    ``aggregation="sync"`` builds the classic round loop; ``fedbuff``
    builds the event-driven engine instead — both expose the
    same run()/close()/history/clock surface; ``method="singleset"``
    builds :func:`singleset_run`.  ``tracer`` (repro.obs) instruments
    whichever engine is built; the caller owns exporting it.
    """
    if cfg.method == "singleset":
        cfg = singleset_run(cfg)
    # The compute dtype must be pinned before any dataset/model allocation;
    # models, datasets and optimisers capture it at build time.
    set_default_dtype(cfg.dtype)
    train_set, test_set = build_dataset(cfg)
    parts = build_partition(cfg, train_set.y, run_rng(cfg.seed, STREAM_PARTITION))
    # Data attacks poison a malicious client's shard as the pool builds
    # that client; update attacks leave data untouched.
    attack = build_attack(cfg)
    clients = make_clients(train_set, parts, attack)
    model_factory = build_model_factory(cfg, train_set)
    strategy = build_strategy(cfg)
    defense = build_defense(cfg)
    # executor=None lets the simulation build its serial default, which
    # reuses the evaluation model as its workspace; the simulation owns
    # whichever executor it gets and releases it in close().
    executor = None
    if cfg.backend != "serial":
        executor = build_executor(cfg, clients, model_factory)
    fleet = build_fleet(cfg)
    faults = build_fault_plan(cfg)
    wire = build_wire(cfg)
    if cfg.aggregation != "sync":
        sim = AsyncFederatedServer(
            clients, test_set, model_factory, strategy, build_fl_config(cfg),
            clock=build_clock(cfg),
            executor=executor,
            buffer_size=cfg.buffer_size,
            max_concurrency=cfg.max_concurrency,
            staleness=cfg.staleness,
            server_mix=cfg.server_mix,
            fleet=fleet,
            dispatch=cfg.dispatch,
            tracer=tracer,
            attack=attack,
            defense=defense,
            faults=faults,
            topology=cfg.topology,
            n_edges=cfg.n_edges,
            wire=wire,
        )
    else:
        sim = FederatedSimulation(
            clients, test_set, model_factory, strategy, build_fl_config(cfg),
            executor=executor, clock=build_clock(cfg), fleet=fleet,
            tracer=tracer, attack=attack, defense=defense, faults=faults,
            topology=cfg.topology, n_edges=cfg.n_edges, wire=wire,
        )
    # The engine may have built its own serial default executor; the retry
    # policy applies to whichever executor ended up inside.
    sim.executor.retry = build_retry_policy(cfg)
    return sim


# --------------------------------------------------------------------------
# top-level entry point
# --------------------------------------------------------------------------

def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment cell and return its headline metrics.

    The config's compute dtype is active for the whole run and restored
    afterwards, so one float32 cell cannot leak its dtype into later
    experiments built in the same process.  (``build_simulation`` sets but
    does not restore the dtype — its caller owns the live simulation.)
    """
    start = time.perf_counter()
    with default_dtype(cfg.dtype):
        return _run_experiment(cfg, start)


def _run_experiment(cfg: ExperimentConfig, start: float) -> ExperimentResult:
    tracer = None
    if cfg.trace is not None:
        tracer = Tracer(metrics_interval=cfg.metrics_interval)
    with build_simulation(cfg, tracer=tracer) as sim:
        if cfg.resume is not None:
            snapshot = load_snapshot(cfg.resume)
            sim.restore_state(validate_resume(snapshot, cfg))
        if cfg.checkpoint_path is not None:
            sim.checkpointer = Checkpointer(
                cfg.checkpoint_path,
                every=cfg.checkpoint_every,
                meta={"fingerprint": checkpoint_fingerprint(cfg)},
            )
        history = sim.run()
    extra: dict = {
        "sim_time_s": history.total_sim_time(),
        "dropped_updates": history.total_dropped(),
    }
    if cfg.aggregation != "sync":
        extra.update({
            "aggregation": cfg.aggregation,
            "aggregations": len(history.records),
            "arrivals": len(history.events),
            "mean_staleness": history.mean_staleness(),
            "discarded_updates": sim.discarded_updates,
        })
    if cfg.fleet_active:
        extra.update({
            "availability": cfg.availability,
            "connectivity_dropped": history.total_connectivity_dropped(),
            "mean_work_fraction": history.mean_work_fraction(),
        })
        if cfg.aggregation == "sync":
            extra["mean_online"] = history.mean_online()
    if cfg.wire_active:
        extra["wire"] = {
            "codec": cfg.codec,
            "error_feedback": cfg.error_feedback,
            "bandwidth_model": cfg.bandwidth_model,
            "bytes_up": history.total_bytes_up(),
            "bytes_down": history.total_bytes_down(),
            "dense_bytes_up": history.total_dense_bytes_up(),
            "compression_ratio": history.wire_compression_ratio(),
        }
    if cfg.robust_active:
        extra.update({
            "attack": cfg.attack,
            "aggregator": cfg.aggregator,
            "malicious_clients": sorted(sim.attack.malicious) if sim.attack else [],
            "malicious_aggregated": history.total_malicious_aggregated(),
            "rejected_updates": history.total_rejected(),
            "clipped_updates": history.total_clipped(),
        })
        backdoor = history.final_backdoor_accuracy()
        if backdoor is not None:
            extra["backdoor_accuracy"] = backdoor
    if cfg.faults_active or sim.fault_totals.any():
        extra["faults"] = sim.fault_totals.as_dict()
    if cfg.checkpoint_path is not None:
        extra["checkpoint"] = {
            "path": cfg.checkpoint_path,
            "every": cfg.checkpoint_every,
            "saves": sim.checkpointer.saves,
        }
    if cfg.resume is not None:
        extra["resumed_from"] = cfg.resume
    if tracer is not None:
        extra["trace_path"] = str(write_run_artifacts(tracer, cfg.trace, config=cfg))
    return ExperimentResult(
        config=cfg,
        best_accuracy=history.best_accuracy() if history.records else None,
        history=history,
        wall_time_s=time.perf_counter() - start,
        extra=extra,
    )
