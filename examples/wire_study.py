#!/usr/bin/env python
"""Wire study: how many bytes does an accuracy point cost?

A 10-client federation on the float32 substrate sweeping the upload
codec grid — dense, top-k sparsification (1% and 5%), QSGD quantization
(4 and 8 bit), and the top-k+QSGD composition — with error feedback on,
then the composition again with error feedback off to show what the
residual carry buys.

Every run reports its *exact* uploaded bytes (header + indices + scales
+ packed levels, the size ``repro.fl.wire.payload_nbytes`` counts),
the compression ratio against the dense-float32 baseline over the same
schedule, and the final accuracy.  A second pass puts the two headline
codecs on a constrained 1 Mbit/s uplink with heterogeneous per-client
links, where payload bytes become simulated seconds and compression
becomes wall-clock (makespan) speedup.

The shapes to notice: 8-bit quantization is nearly free accuracy-wise
(4x smaller), top-k at 5% with EF costs well under a point for ~16x,
and the same sparsifier *without* EF visibly diverges — the residual
carry is what makes aggressive compression usable.

Run:  python examples/wire_study.py
"""

from repro.harness import ExperimentConfig, run_experiment

CODECS = (
    ("dense", {}),
    ("qsgd8", {}),
    ("qsgd4", {}),
    ("topk", {"topk_frac": 0.05}),
    ("topk", {"topk_frac": 0.01}),
    ("topk+qsgd8", {"topk_frac": 0.05}),
    ("topk+qsgd8", {"topk_frac": 0.05, "error_feedback": False}),
)


def cell(codec: str, bandwidth: bool = False, **kw) -> ExperimentConfig:
    extra = dict(kw)
    if bandwidth:
        extra.update(latency_model="uniform", bandwidth_model="uniform",
                     up_mbps=1.0, down_mbps=50.0)
    return ExperimentConfig(
        dataset="mnist", partition="CE", method="fedavg",
        n_clients=10, clients_per_round=10, scale="bench", rounds=30,
        seed=0, dtype="float32", codec=codec, **extra,
    )


def label(codec: str, kw: dict) -> str:
    name = codec
    if "topk_frac" in kw:
        name += f" @{kw['topk_frac']:g}"
    if kw.get("error_feedback") is False:
        name += " (no EF)"
    return name


def main() -> None:
    print("codec sweep (byte-blind timing, identical schedules):")
    print(f"  {'codec':<24} {'final acc':>9} {'MB up':>8} {'ratio':>7}")
    for codec, kw in CODECS:
        history = run_experiment(cell(codec, **kw)).history
        acc = history.accuracy_series()[-1][1]
        if history.total_bytes_up():
            mb = history.total_bytes_up() / 1e6
            ratio = f"{history.wire_compression_ratio():.1f}x"
        else:  # dense without a bandwidth model skips the wire entirely
            mb = run_experiment(
                cell("topk", topk_frac=0.05)
            ).history.total_dense_bytes_up() / 1e6
            ratio = "1.0x"
        print(f"  {label(codec, kw):<24} {acc:>9.3f} {mb:>8.2f} {ratio:>7}")

    print()
    print("constrained uplink (1 Mbit/s up, heterogeneous links):")
    for codec, kw in (("dense", {}), ("topk+qsgd8", {"topk_frac": 0.05})):
        result = run_experiment(cell(codec, bandwidth=True, **kw))
        acc = result.history.accuracy_series()[-1][1]
        makespan = result.extra["sim_time_s"]
        print(f"  {label(codec, kw):<24} {acc:>9.3f}   "
              f"{makespan:8.1f}s simulated makespan")


if __name__ == "__main__":
    main()
