"""Command-line entry point: run one experiment cell from the shell.

Examples::

    python -m repro --dataset mnist --partition CE --method feddrl
    python -m repro --dataset cifar100 --partition CN --method fedavg \
        --clients 30 --per-round 10 --rounds 60 --scale bench
    python -m repro --method fedavg --backend process --workers 4
    python -m repro --method fedavg --latency-model lognormal \
        --straggler-fraction 0.2 --deadline 5
    python -m repro --method fedavg --aggregation fedbuff --buffer-size 5 \
        --latency-model lognormal --straggler-fraction 0.3
    python -m repro --method fedavg --latency-model lognormal \
        --availability markov --offline-fraction 0.2 --churn-rate 0.5 \
        --dropout-prob 0.1 --completeness 0.5
    python -m repro --method fedavg --latency-model lognormal \
        --trace run.trace.jsonl --metrics-interval 10
    python -m repro trace-summary run.trace.jsonl --chrome run.chrome.json
    python -m repro --list            # show the valid grid values
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.harness.config import ExperimentConfig, cli_fields
from repro.harness.runner import run_experiment
from repro.runtime.faults import RetriesExhausted

# --list: (label, field) for each vocabulary it prints.
_LISTED = (
    ("datasets:   ", "dataset"),
    ("partitions: ", "partition"),
    ("methods:    ", "method"),
    ("scales:     ", "scale"),
    ("dtypes:     ", "dtype"),
    ("availability: ", "availability"),
    ("attacks:    ", "attack"),
    ("aggregators: ", "aggregator"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FedDRL reproduction: run one dataset x partition x method cell.",
    )
    # Every config flag is declared on its ExperimentConfig field.
    for f, flag in cli_fields():
        kwargs = {
            "default": f.default if flag.cli_default is None else flag.cli_default,
            "help": flag.help,
        }
        if flag.type is bool:
            kwargs["action"] = argparse.BooleanOptionalAction
        else:
            kwargs.update(type=flag.type, choices=flag.choices, metavar=flag.metavar)
        parser.add_argument(flag.flag, **kwargs)
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable result")
    parser.add_argument("--list", action="store_true",
                        help="print the valid grid values and exit")
    return parser


def trace_summary_main(argv: list[str]) -> int:
    """``python -m repro trace-summary PATH`` — per-phase trace breakdown,
    and with ``--chrome OUT`` the trace's Perfetto view."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace-summary",
        description="Summarize a repro trace: per-phase simulated/wall time.",
    )
    parser.add_argument("path", help="JSONL trace written by --trace")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON")
    parser.add_argument("--chrome", metavar="OUT",
                        help="also write the trace as Chrome trace_event JSON "
                             "(open in https://ui.perfetto.dev)")
    args = parser.parse_args(argv)
    from repro.obs import format_summary, read_trace, summarize_records, write_chrome

    try:
        header, records = read_trace(args.path)
        if args.chrome is not None:
            write_chrome(args.chrome, header, records)
    except (OSError, ValueError) as err:
        print(f"python -m repro trace-summary: error: {err}", file=sys.stderr)
        return 2
    summary = summarize_records(header, records)
    summary["path"] = args.path
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
        choices = {f.name: flag.choices for f, flag in cli_fields()}
        for label, name in _LISTED:
            print(f"{label}{', '.join(choices[name])}")
        return 0

    try:
        cfg = ExperimentConfig(
            **{f.name: getattr(args, flag.dest) for f, flag in cli_fields()}
        )
    except ValueError as err:
        # Cross-flag constraints (K <= N, no deadline under feddrl, ...) live
        # in the config layer; report them CLI-style. Errors raised later,
        # during the run, keep their tracebacks unless caught below.
        print(f"python -m repro: error: {err}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(cfg)
    except RetriesExhausted as err:
        # Injected faults outlived --max-retries: the run cannot finish.
        print(f"python -m repro: error: {err}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as err:
        if cfg.resume:
            # A missing/corrupt/mismatched snapshot is a user-input error,
            # not a crash: report it CLI-style like the config checks above.
            print(f"python -m repro: error: --resume: {err}", file=sys.stderr)
            return 2
        raise
    extra = result.extra
    if result.best_accuracy is None:
        print("python -m repro: warning: no aggregation window closed, so none "
              "was evaluated; best_accuracy is null", file=sys.stderr)

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
        payload.update(extra)
        print(json.dumps(payload))
    else:
        print(f"{args.method} on {args.dataset}/{args.partition} "
              f"(N={args.clients}, K={args.per_round}, scale={args.scale}, "
              f"backend={args.backend}, aggregation={args.aggregation}):")
        best = result.best_accuracy
        print(f"  best top-1 accuracy: {'n/a' if best is None else f'{best:.4f}'}")
        print(f"  wall time:           {result.wall_time_s:.1f}s")
        print(f"  simulated time:      {extra['sim_time_s']:.1f}s "
              f"({extra['dropped_updates']} updates dropped)")
        if "arrivals" in extra:
            print(f"  async:               {extra['aggregations']} "
                  f"aggregations over {extra['arrivals']} arrivals, "
                  f"mean staleness {extra['mean_staleness']:.2f}")
        if "availability" in extra:
            online = extra.get("mean_online")
            online_s = f", mean online {online:.1f}" if online is not None else ""
            print(f"  fleet:               {extra['availability']} "
                  f"availability, "
                  f"{extra['connectivity_dropped']} updates lost to "
                  f"dropout, mean work fraction "
                  f"{extra['mean_work_fraction']:.2f}{online_s}")
        if "wire" in extra:
            w = extra["wire"]
            ef_s = "on" if w["error_feedback"] else "off"
            print(f"  wire:                codec={w['codec']} (EF {ef_s}), "
                  f"{w['bytes_up']:,} B up / {w['bytes_down']:,} B down, "
                  f"compression {w['compression_ratio']:.1f}x"
                  + (f", bandwidth={w['bandwidth_model']}"
                     if w["bandwidth_model"] != "none" else ""))
        if "attack" in extra:
            backdoor = extra.get("backdoor_accuracy")
            backdoor_s = (
                f", backdoor success {backdoor:.2f}" if backdoor is not None else ""
            )
            print(f"  adversarial:         attack={extra['attack']} "
                  f"(malicious {extra['malicious_clients']}), "
                  f"aggregator={extra['aggregator']}, "
                  f"{extra['rejected_updates']} rejected / "
                  f"{extra['clipped_updates']} clipped"
                  f"{backdoor_s}")
        if "faults" in extra:
            f = extra["faults"]
            injected = ", ".join(
                f"{k}:{v}" for k, v in sorted(f["injected"].items())
            ) or "none"
            degraded_s = ", degraded to serial" if f["degraded"] else ""
            print(f"  faults:              injected {injected} "
                  f"({f['sim_retries']} retries, "
                  f"{f['sim_backoff_s']:.1f}s simulated backoff, "
                  f"{f['pool_rebuilds']} pool rebuilds{degraded_s})")
        if "checkpoint" in extra:
            c = extra["checkpoint"]
            print(f"  checkpoint:          {c['path']} "
                  f"(every {c['every']}, {c['saves']} saves)")
        if "resumed_from" in extra:
            print(f"  resumed from:        {extra['resumed_from']}")
        if "trace_path" in extra:
            print(f"  trace:               {extra['trace_path']}")
        tail = result.history.accuracy_series()[-3:]
        series = "  ".join(f"r{r}:{v:.3f}" for r, v in tail)
        print(f"  final rounds:        {series}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
