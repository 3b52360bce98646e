"""Experiment runner: config -> dataset -> partition -> simulation -> result."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.partition import get_partitioner
from repro.data.synthetic import cifar100_like, fashion_like, mnist_like
from repro.fl.async_ import AsyncFederatedServer, get_staleness_weighting
from repro.fl.client import make_clients
from repro.fleet.scale import LazyClientPool
from repro.fl.robust import AttackModel, RobustAggregator
from repro.fl.simulation import FederatedSimulation, FLConfig, History
from repro.fl.strategies import FedAvg, FedDRL, FedProx, Strategy
from repro.fl.wire import WireFormat, get_codec
from repro.fleet import FleetSimulator, get_availability_model
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
    get_bandwidth_model,
    get_latency_model,
    load_snapshot,
    make_executor,
)


@dataclass
class ExperimentResult:
    """Outcome of one experiment cell."""

    config: ExperimentConfig
    best_accuracy: float
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
        return fashion_like(n_train, n_test, seed=cfg.seed + 1, image_size=size)
    return cifar100_like(
        n_train, n_test, seed=cfg.seed + 2, image_size=size,
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

    Under buffered-async aggregation the strategy sees one *buffer* of
    updates per aggregation, so FedDRL's agent is built for
    K=buffer_size rather than K=clients_per_round.
    """
    if cfg.method == "fedavg":
        return FedAvg()
    if cfg.method == "fedprox":
        return FedProx(mu=cfg.prox_mu)
    if cfg.method == "feddrl":
        from repro.drl.agent import DRLConfig

        drl_cfg = DRLConfig(
            beta=cfg.drl_beta,
            prioritized=cfg.drl_prioritized,
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
        if cfg.topology == "hier":
            # The cloud strategy sees one pseudo-update per edge server.
            participation = cfg.n_edges
        else:
            participation = (
                cfg.buffer_size if cfg.aggregation == "fedbuff"
                else cfg.clients_per_round
            )
        return FedDRL(
            clients_per_round=participation,
            drl_config=drl_cfg,
            agent=agent,
            seed=cfg.seed + 13,
            explore=cfg.drl_explore,
            fairness_weight=cfg.fairness_weight,
        )
    raise ValueError(f"{cfg.method!r} is not a federated strategy")


def pretrain_feddrl_agent(cfg: ExperimentConfig, drl_cfg):
    """Two-stage pretraining (Section 3.4.2): online workers, offline main agent.

    Stage 1: each worker is an ordinary engine run of the config on its own
    seed (so its own dataset and partition realisation), whose fresh FedDRL
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
    main_agent = None
    for w in range(cfg.drl_pretrain_workers):
        # Workers always explore; nobody reads their test accuracy, hence
        # the sparsest evaluation schedule (eval_every = rounds).
        wcfg = cfg.with_(
            seed=cfg.seed + 7919 * (w + 1), drl_pretrain_rounds=0,
            drl_explore=True, rounds=rounds, eval_every=rounds,
        )
        with build_simulation(wcfg) as sim:
            sim.run()
        worker = sim.strategy.agent
        if main_agent is None:
            main_agent = DDPGAgent(
                worker.state_dim, worker.n_clients, drl_cfg,
                rng=np.random.default_rng(cfg.seed + 999_983),
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
        transient_prob=cfg.fault_transient_prob,
        hang_prob=cfg.fault_hang_prob,
        hang_s=cfg.fault_hang_s,
    )


def build_retry_policy(cfg: ExperimentConfig) -> RetryPolicy:
    """The executors' recovery policy from the config's knobs."""
    return RetryPolicy(
        max_retries=cfg.max_retries,
        task_timeout_s=cfg.task_timeout_s,
    )


def build_executor(cfg: ExperimentConfig, clients, model_factory, model=None):
    """The execution backend named by ``cfg.backend`` (see repro.runtime)."""
    return make_executor(
        cfg.backend, clients, model_factory, workers=cfg.workers, model=model,
        retry=build_retry_policy(cfg),
    )


def build_clock(cfg: ExperimentConfig) -> VirtualClock | None:
    """The virtual device clock, or None when ``latency_model="none"``."""
    if cfg.latency_model == "none":
        return None
    bandwidth = None
    if cfg.bandwidth_model != "none":
        bandwidth = get_bandwidth_model(
            cfg.bandwidth_model, up_mbps=cfg.up_mbps, down_mbps=cfg.down_mbps
        )
    return VirtualClock(
        get_latency_model(cfg.latency_model),
        cfg.n_clients,
        seed=cfg.seed + 23,
        deadline_s=cfg.deadline_s,
        policy=cfg.deadline_policy,
        straggler_fraction=cfg.straggler_fraction,
        straggler_slowdown=cfg.straggler_slowdown,
        bandwidth=bandwidth,
        straggler_comm_slowdown=cfg.straggler_comm_slowdown,
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
    codec = get_codec(
        cfg.codec, topk_frac=cfg.topk_frac, quant_bits=cfg.quant_bits
    )
    return WireFormat(codec, cfg.seed, error_feedback=cfg.error_feedback)


def build_fleet(cfg: ExperimentConfig, clients) -> FleetSimulator | None:
    """The fleet-behavior simulator, or None for an ideal fleet."""
    if not cfg.fleet_active:
        return None
    labels = None
    if cfg.availability == "label_skew":
        labels = [c.dataset.y for c in clients]
    model = get_availability_model(
        cfg.availability,
        n_clients=cfg.n_clients,
        seed=cfg.seed + 31,
        offline_fraction=cfg.offline_fraction,
        churn_rate=cfg.churn_rate,
        labels=labels,
    )
    return FleetSimulator(
        cfg.n_clients,
        model,
        seed=cfg.seed + 31,
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

    ``aggregation="sync"`` builds the classic round loop; ``fedbuff`` /
    ``fedasync`` build the event-driven engine instead — both expose the
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
    parts = build_partition(cfg, train_set.y, np.random.default_rng(cfg.seed + 5))
    if cfg.fleet_mode == "lazy":
        # Same shards, same per-client RNG derivation as make_clients —
        # histories are bit-identical; only residency differs (O(K)).  The
        # process backend ships the pool to its workers, so its base set
        # goes to shared memory first.
        clients = LazyClientPool(
            train_set, parts, seed=cfg.seed + 11, share=cfg.backend == "process"
        )
    else:
        clients = make_clients(train_set, parts, seed=cfg.seed + 11)
    model_factory = build_model_factory(cfg, train_set)
    strategy = build_strategy(cfg)
    attack = build_attack(cfg)
    if attack is not None:
        # Data attacks poison the malicious shards before any executor
        # replicates the client list; update attacks leave data untouched.
        attack.poison_clients(clients)
    defense = build_defense(cfg)
    # executor=None lets the simulation build its serial default, which
    # reuses the evaluation model as its workspace; the simulation owns
    # whichever executor it gets and releases it in close().
    executor = None
    if cfg.backend != "serial":
        executor = build_executor(cfg, clients, model_factory)
    fleet = build_fleet(cfg, clients)
    faults = build_fault_plan(cfg)
    wire = build_wire(cfg)
    if cfg.aggregation != "sync":
        sim = AsyncFederatedServer(
            clients, test_set, model_factory, strategy, build_fl_config(cfg),
            clock=build_clock(cfg),
            executor=executor,
            mode=cfg.aggregation,
            buffer_size=cfg.buffer_size,
            max_concurrency=cfg.max_concurrency,
            staleness=get_staleness_weighting(cfg.staleness),
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
    extra: dict = {}
    if sim.clock is not None:
        extra.update({
            "sim_time_s": history.total_sim_time(),
            "dropped_updates": history.total_dropped(),
        })
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
        paths = write_run_artifacts(tracer, cfg.trace, config=cfg)
        extra["trace_paths"] = paths
    return ExperimentResult(
        config=cfg,
        best_accuracy=history.best_accuracy(),
        history=history,
        wall_time_s=time.perf_counter() - start,
        extra=extra or None,
    )
