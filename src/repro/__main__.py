"""Command-line entry point: run one experiment cell from the shell.

Examples::

    python -m repro --dataset mnist --partition CE --method feddrl
    python -m repro --dataset cifar100 --partition CN --method fedavg \
        --clients 30 --per-round 10 --rounds 60 --scale bench
    python -m repro --method fedavg --backend process --workers 4
    python -m repro --method fedavg --latency-model lognormal \
        --straggler-fraction 0.2 --deadline 5 --deadline-policy drop
    python -m repro --method fedavg --aggregation fedbuff --buffer-size 5 \
        --latency-model lognormal --straggler-fraction 0.3
    python -m repro --method fedavg --latency-model lognormal \
        --availability markov --offline-fraction 0.2 --churn-rate 0.5 \
        --dropout-prob 0.1 --completeness 0.5
    python -m repro --method fedavg --latency-model lognormal \
        --trace run.trace.jsonl --metrics-interval 10
    python -m repro trace-summary run.trace.jsonl
    python -m repro --list            # show the valid grid values
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.harness.config import (
    SCALES,
    VALID_AGGREGATIONS,
    VALID_AGGREGATORS,
    VALID_ATTACKS,
    VALID_AVAILABILITY,
    VALID_BACKENDS,
    VALID_BANDWIDTH_MODELS,
    VALID_CODECS,
    VALID_DATASETS,
    VALID_DEADLINE_POLICIES,
    VALID_DISPATCH,
    VALID_DTYPES,
    VALID_LATENCY_MODELS,
    VALID_METHODS,
    VALID_PARTITIONS,
    VALID_STALENESS,
    VALID_TOPOLOGIES,
    VALID_FLEET_MODES,
    ExperimentConfig,
)
from repro.harness.runner import run_experiment


def _server_mix(value: str):
    """--server-mix accepts a float step or the literal 'delta'."""
    if value == "delta":
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a float in (0, 1] or 'delta', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FedDRL reproduction: run one dataset x partition x method cell.",
    )
    parser.add_argument("--dataset", default="mnist", choices=VALID_DATASETS)
    parser.add_argument("--partition", default="CE", choices=VALID_PARTITIONS)
    parser.add_argument("--method", default="feddrl", choices=VALID_METHODS)
    parser.add_argument("--scale", default="bench", choices=sorted(SCALES))
    parser.add_argument("--clients", type=int, default=10, help="population size N")
    parser.add_argument("--per-round", type=int, default=10, help="participants K")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override the scale preset's round count")
    parser.add_argument("--delta", type=float, default=0.6,
                        help="cluster-skew level for CE/CN")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pretrain", type=int, default=0,
                        help="two-stage pretraining rounds per worker (feddrl)")
    parser.add_argument("--backend", default="serial", choices=VALID_BACKENDS,
                        help="client-execution backend (bit-identical results)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count for thread/process backends "
                             "(default: CPU count)")
    parser.add_argument("--dtype", default="float64", choices=VALID_DTYPES,
                        help="substrate compute dtype; float32 halves memory "
                             "bandwidth and IPC payload, float64 (default) "
                             "matches historical results bit-for-bit")
    parser.add_argument("--latency-model", default="none",
                        choices=VALID_LATENCY_MODELS,
                        help="virtual-clock device latency model")
    parser.add_argument("--straggler-fraction", type=float, default=0.0,
                        help="fraction of simulated devices that straggle")
    parser.add_argument("--straggler-slowdown", type=float, default=8.0,
                        help="slowdown factor applied to straggler devices")
    parser.add_argument("--deadline", type=float, default=None,
                        help="simulated round deadline in seconds")
    parser.add_argument("--deadline-policy", default="wait",
                        choices=VALID_DEADLINE_POLICIES,
                        help="wait for stragglers or drop their updates")
    parser.add_argument("--codec", default="dense", choices=VALID_CODECS,
                        help="upload codec for client deltas: dense float "
                             "passthrough, topk sparsification, qsgd{4,8} "
                             "stochastic quantization, or topk+qsgd{4,8} "
                             "composition")
    parser.add_argument("--topk-frac", type=float, default=0.01,
                        help="topk codecs: fraction of coordinates kept")
    parser.add_argument("--quant-bits", type=int, default=8, choices=[4, 8],
                        help="qsgd codecs without a bits suffix: quantization "
                             "bit width")
    parser.add_argument("--error-feedback", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="carry the lossy-codec residual into the next "
                             "upload from the same client")
    parser.add_argument("--bandwidth-model", default="none",
                        choices=VALID_BANDWIDTH_MODELS,
                        help="per-client link-rate model: comm time becomes "
                             "payload_bytes / bandwidth (needs "
                             "--latency-model)")
    parser.add_argument("--up-mbps", type=float, default=1.0,
                        help="mean client uplink rate in Mbit/s")
    parser.add_argument("--down-mbps", type=float, default=10.0,
                        help="mean client downlink rate in Mbit/s")
    parser.add_argument("--straggler-comm-slowdown", type=float, default=None,
                        help="separate straggler multiplier for comm phases "
                             "(default: same as --straggler-slowdown)")
    parser.add_argument("--aggregation", default="sync",
                        choices=VALID_AGGREGATIONS,
                        help="synchronous rounds, or the event-driven async "
                             "engine: fedbuff aggregates every --buffer-size "
                             "arrivals, fedasync on every arrival "
                             "(needs --latency-model)")
    parser.add_argument("--buffer-size", type=int, default=5,
                        help="fedbuff: arrived updates per aggregation")
    parser.add_argument("--max-concurrency", type=int, default=None,
                        help="async: max client jobs in flight "
                             "(default: --per-round)")
    parser.add_argument("--staleness", default="polynomial",
                        choices=VALID_STALENESS,
                        help="async staleness-decay on impact factors")
    parser.add_argument("--server-mix", type=_server_mix, default=None,
                        help="async server mixing step in (0, 1], or 'delta' "
                             "for FedBuff's delta-based update "
                             "(default: 1.0 fedbuff / 0.6 fedasync)")
    parser.add_argument("--availability", default="always",
                        choices=VALID_AVAILABILITY,
                        help="fleet availability model: who is online as "
                             "simulated time advances (needs --latency-model)")
    parser.add_argument("--offline-fraction", type=float, default=0.2,
                        help="mean offline fraction for the availability model")
    parser.add_argument("--churn-rate", type=float, default=0.5,
                        help="markov availability: on/off switching intensity "
                             "(mean session length ~ 1/rate slots)")
    parser.add_argument("--dropout-prob", type=float, default=0.0,
                        help="per-(round, client) mid-round dropout: the "
                             "update is lost after its compute time is paid")
    parser.add_argument("--completeness", type=float, default=1.0,
                        help="minimum fraction of the local batch budget a "
                             "client runs (sampled per round from [c, 1])")
    parser.add_argument("--dispatch", default="random", choices=VALID_DISPATCH,
                        help="async job dispatch among online idle clients: "
                             "uniform, or fairness (fewest jobs first)")
    parser.add_argument("--topology", default="flat", choices=VALID_TOPOLOGIES,
                        help="aggregation topology: flat (clients -> cloud) "
                             "or hier (clients -> edge servers -> cloud)")
    parser.add_argument("--edges", type=int, default=2,
                        help="edge-server count for --topology hier")
    parser.add_argument("--fleet-mode", default="eager",
                        choices=VALID_FLEET_MODES,
                        help="client materialization: eager builds every "
                             "Client up front; lazy materializes only each "
                             "round's participants (bit-identical history)")
    parser.add_argument("--attack", default="none", choices=VALID_ATTACKS,
                        help="adversarial fleet: poison a seeded malicious "
                             "subset's data (label_flip, backdoor) or their "
                             "submitted updates (sign_flip, scale, ipm)")
    parser.add_argument("--malicious-fraction", type=float, default=0.2,
                        help="fraction of clients the attack compromises "
                             "(seeded; at least one when an attack is set)")
    parser.add_argument("--attack-scale", type=float, default=1.0,
                        help="update-attack amplification (and backdoor "
                             "model-replacement boost when > 1)")
    parser.add_argument("--aggregator", default="mean", choices=VALID_AGGREGATORS,
                        help="server combination rule: the classic weighted "
                             "mean, or a robust defense (median, trimmed_mean, "
                             "krum, multikrum, norm_clip)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="stream spans/metrics to a JSONL trace at PATH "
                             "(a Chrome trace and a run manifest are written "
                             "next to it)")
    parser.add_argument("--metrics-interval", type=float, default=0.0,
                        help="snapshot the metrics registry into the trace "
                             "every N simulated seconds (needs --trace)")
    parser.add_argument("--fault-crash", type=float, default=0.0,
                        help="per-(round, client) probability the first "
                             "attempt crashes its worker (seeded, recovered "
                             "bit-identically)")
    parser.add_argument("--fault-exception", type=float, default=0.0,
                        help="per-cell probability of an injected task error")
    parser.add_argument("--fault-transient", type=float, default=0.0,
                        help="per-cell probability of a transient failure "
                             "that clears on retry")
    parser.add_argument("--fault-hang", type=float, default=0.0,
                        help="per-cell probability of an injected hang")
    parser.add_argument("--fault-hang-s", type=float, default=0.05,
                        help="wall seconds an injected hang stalls before "
                             "raising")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="per-task timeout in wall seconds for pooled "
                             "backends (default: wait forever)")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="bounded per-task retry budget")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="atomically snapshot full run state to PATH "
                             "(kill-safe; see --checkpoint-every / --resume)")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        help="snapshot every N rounds (sync) or aggregation "
                             "flushes (async); needs --checkpoint")
    parser.add_argument("--resume", default=None, metavar="PATH",
                        help="restore run state from a snapshot and continue "
                             "(bit-identical to an uninterrupted run)")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable result")
    parser.add_argument("--list", action="store_true",
                        help="print the valid grid values and exit")
    return parser


def trace_summary_main(argv: list[str]) -> int:
    """``python -m repro trace-summary PATH`` — per-phase trace breakdown."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace-summary",
        description="Summarize a repro trace: per-phase simulated/wall time.",
    )
    parser.add_argument("path", help="JSONL trace written by --trace")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON")
    args = parser.parse_args(argv)
    from repro.obs import format_summary, summarize_trace

    try:
        summary = summarize_trace(args.path)
    except (OSError, ValueError) as err:
        print(f"python -m repro trace-summary: error: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary))
    else:
        print(format_summary(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace-summary":
        return trace_summary_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list:
        print(f"datasets:   {', '.join(VALID_DATASETS)}")
        print(f"partitions: {', '.join(VALID_PARTITIONS)}")
        print(f"methods:    {', '.join(VALID_METHODS)}")
        print(f"scales:     {', '.join(sorted(SCALES))}")
        print(f"dtypes:     {', '.join(VALID_DTYPES)}")
        print(f"availability: {', '.join(VALID_AVAILABILITY)}")
        print(f"attacks:    {', '.join(VALID_ATTACKS)}")
        print(f"aggregators: {', '.join(VALID_AGGREGATORS)}")
        return 0

    try:
        cfg = ExperimentConfig(
            dataset=args.dataset,
            partition=args.partition,
            method=args.method,
            n_clients=args.clients,
            clients_per_round=args.per_round,
            scale=args.scale,
            delta=args.delta,
            seed=args.seed,
            rounds=args.rounds,
            drl_pretrain_rounds=args.pretrain,
            backend=args.backend,
            workers=args.workers,
            dtype=args.dtype,
            latency_model=args.latency_model,
            straggler_fraction=args.straggler_fraction,
            straggler_slowdown=args.straggler_slowdown,
            deadline_s=args.deadline,
            deadline_policy=args.deadline_policy,
            codec=args.codec,
            topk_frac=args.topk_frac,
            quant_bits=args.quant_bits,
            error_feedback=args.error_feedback,
            bandwidth_model=args.bandwidth_model,
            up_mbps=args.up_mbps,
            down_mbps=args.down_mbps,
            straggler_comm_slowdown=args.straggler_comm_slowdown,
            aggregation=args.aggregation,
            buffer_size=args.buffer_size,
            max_concurrency=args.max_concurrency,
            staleness=args.staleness,
            server_mix=args.server_mix,
            availability=args.availability,
            offline_fraction=args.offline_fraction,
            churn_rate=args.churn_rate,
            dropout_prob=args.dropout_prob,
            completeness=args.completeness,
            dispatch=args.dispatch,
            topology=args.topology,
            n_edges=args.edges,
            fleet_mode=args.fleet_mode,
            attack=args.attack,
            malicious_fraction=args.malicious_fraction,
            attack_scale=args.attack_scale,
            aggregator=args.aggregator,
            trace=args.trace,
            metrics_interval=args.metrics_interval,
            fault_crash_prob=args.fault_crash,
            fault_exception_prob=args.fault_exception,
            fault_transient_prob=args.fault_transient,
            fault_hang_prob=args.fault_hang,
            fault_hang_s=args.fault_hang_s,
            task_timeout_s=args.task_timeout,
            max_retries=args.max_retries,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
        )
    except ValueError as err:
        # Cross-flag constraints (K <= N, drop needs a deadline, ...) live
        # in the config layer; report them CLI-style. Errors raised later,
        # during the run, keep their tracebacks.
        print(f"python -m repro: error: {err}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(cfg)
    except (OSError, ValueError) as err:
        if cfg.resume:
            # A missing/corrupt/mismatched snapshot is a user-input error,
            # not a crash: report it CLI-style like the config checks above.
            print(f"python -m repro: error: --resume: {err}", file=sys.stderr)
            return 2
        raise

    if args.json:
        from repro.harness.reporting import history_digest

        history = result.history
        payload = {
            "dataset": args.dataset,
            "partition": args.partition,
            "method": args.method,
            "best_accuracy": result.best_accuracy,
            "wall_time_s": result.wall_time_s,
            "accuracy_series": history.accuracy_series(),
            "mean_impact_ms": history.mean_impact_time() * 1e3,
            "mean_aggregation_ms": history.mean_aggregation_time() * 1e3,
            "backend": args.backend,
            "dtype": args.dtype,
            # The fault-tolerance comparison surface: equal hashes mean
            # bit-identical training trajectories.
            "history_hash": history_digest(history),
        }
        if args.aggregation != "sync":
            payload["accuracy_vs_time"] = history.accuracy_vs_time()
        if result.extra:
            payload.update(result.extra)
        print(json.dumps(payload))
    else:
        print(f"{args.method} on {args.dataset}/{args.partition} "
              f"(N={args.clients}, K={args.per_round}, scale={args.scale}, "
              f"backend={args.backend}, aggregation={args.aggregation}):")
        print(f"  best top-1 accuracy: {result.best_accuracy:.4f}")
        print(f"  wall time:           {result.wall_time_s:.1f}s")
        if result.extra and "sim_time_s" in result.extra:
            print(f"  simulated time:      {result.extra['sim_time_s']:.1f}s "
                  f"({result.extra['dropped_updates']} updates dropped)")
        if result.extra and "arrivals" in result.extra:
            print(f"  async:               {result.extra['aggregations']} "
                  f"aggregations over {result.extra['arrivals']} arrivals, "
                  f"mean staleness {result.extra['mean_staleness']:.2f}")
        if result.extra and "availability" in result.extra:
            online = result.extra.get("mean_online")
            online_s = f", mean online {online:.1f}" if online is not None else ""
            print(f"  fleet:               {result.extra['availability']} "
                  f"availability, "
                  f"{result.extra['connectivity_dropped']} updates lost to "
                  f"dropout, mean work fraction "
                  f"{result.extra['mean_work_fraction']:.2f}{online_s}")
        if result.extra and "wire" in result.extra:
            w = result.extra["wire"]
            ef_s = "on" if w["error_feedback"] else "off"
            print(f"  wire:                codec={w['codec']} (EF {ef_s}), "
                  f"{w['bytes_up']:,} B up / {w['bytes_down']:,} B down, "
                  f"compression {w['compression_ratio']:.1f}x"
                  + (f", bandwidth={w['bandwidth_model']}"
                     if w["bandwidth_model"] != "none" else ""))
        if result.extra and "attack" in result.extra:
            backdoor = result.extra.get("backdoor_accuracy")
            backdoor_s = (
                f", backdoor success {backdoor:.2f}" if backdoor is not None else ""
            )
            print(f"  adversarial:         attack={result.extra['attack']} "
                  f"(malicious {result.extra['malicious_clients']}), "
                  f"aggregator={result.extra['aggregator']}, "
                  f"{result.extra['rejected_updates']} rejected / "
                  f"{result.extra['clipped_updates']} clipped"
                  f"{backdoor_s}")
        if result.extra and "faults" in result.extra:
            f = result.extra["faults"]
            injected = ", ".join(
                f"{k}:{v}" for k, v in sorted(f["injected"].items())
            ) or "none"
            degraded_s = ", degraded to serial" if f["degraded"] else ""
            print(f"  faults:              injected {injected} "
                  f"({f['sim_retries']} retries, "
                  f"{f['sim_backoff_s']:.1f}s simulated backoff, "
                  f"{f['pool_rebuilds']} pool rebuilds{degraded_s})")
        if result.extra and "checkpoint" in result.extra:
            c = result.extra["checkpoint"]
            print(f"  checkpoint:          {c['path']} "
                  f"(every {c['every']}, {c['saves']} saves)")
        if result.extra and "resumed_from" in result.extra:
            print(f"  resumed from:        {result.extra['resumed_from']}")
        if result.extra and "trace_paths" in result.extra:
            print(f"  trace:               {result.extra['trace_paths']['trace']} "
                  f"(+ .chrome.json, .manifest.json)")
        tail = result.history.accuracy_series()[-3:]
        series = "  ".join(f"r{r}:{v:.3f}" for r, v in tail)
        print(f"  final rounds:        {series}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
