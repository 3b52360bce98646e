#!/usr/bin/env python
"""Substrate benchmark: arena weight transfer + dtype round wall-clock.

Four measurements, written to ``BENCH_substrate.json``:

1. **Weight-transfer microbench** — ``set_flat_weights`` /
   ``get_flat_weights`` / ``zero_grad`` / one SGD step against faithful
   replicas of the pre-arena (seed) implementations, which re-walked the
   layer list and looped per array on every call, always in float64.
   Two speedups are recorded per operation: ``speedup_arena`` isolates
   the layout change (arena float64 vs seed loop float64) and
   ``speedup_total`` is what this substrate now ships end to end (arena
   float32 vs the seed's float64 loop — layout *and* dtype).

2. **End-to-end round wall-clock** — mean seconds per federated round
   (FedAvg, simple_cnn on 16x16 synthetic images) for the serial and
   process backends at float64 and float32, plus the per-round broadcast
   payload in bytes (the process backend moves exactly one flat vector
   out per round and one back per client, through shared memory, so
   float32 halves it).

3. **Per-layer conv path** — ``simple_cnn`` at float32 on a batch of 25
   32x32 images (the shape a ``sync_cnn_process`` client evaluates): each
   layer's inference forward, training forward and backward in
   microseconds, so a change to one layer shows in its own row.  Every
   backward gets the gradient the real chain hands that layer, in its
   memory layout.  Beside
   it, each ``Conv2D`` split into its parts at N = 20 (a training batch)
   and N = 25, each part summed over the layer's sample chunks:
   ``unfold`` fill / forward GEMM, and ``dW`` GEMM / ``gcols`` GEMM /
   ``fold``.

4. **Training step** — microseconds per batch-10 SGD step of the bench
   MLP (192 -> 64 -> 32 -> 30, what a ``sync_mlp_serial`` client trains)
   split into forward / loss / backward / optimizer / batch fetch, and per
   Adam step and per ``soft_update`` at the DDPG critic's 79 k-parameter
   arena (what ``sync_feddrl_hier``'s agent updates).

Run ``python benchmarks/bench_substrate.py`` for the full numbers
(tens of seconds) or ``--smoke`` for a seconds-long CI pass with the
same JSON shape.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.data.synthetic import SyntheticImageSpec, make_synthetic_dataset
from repro.drl.networks import make_value_network, soft_update
from repro.fl.client import make_clients
from repro.fl.simulation import FederatedSimulation, FLConfig
from repro.fl.strategies import FedAvg
from repro.nn import functional as F
from repro.nn import layers
from repro.nn.dtypes import set_default_dtype
from repro.nn.layers import Conv2D
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.models import mlp, simple_cnn, vgg_mini
from repro.nn.optim import SGD, Adam
from repro.runtime.executor import make_executor


# ---------------------------------------------------------------------------
# Faithful replicas of the seed implementation (commit 40a5c5d): every call
# re-walks the layers, re-sorts parameter names, rebuilds the array lists,
# and loops per array.  These are the baselines the arena replaced.
# ---------------------------------------------------------------------------

def _seed_all_arrays(model, include_buffers=True):
    pairs = []
    for layer in model.layers:
        for name in sorted(layer.params):
            pairs.append((layer.params[name], layer.grads[name]))
    arrays = [p for p, _ in pairs]
    if include_buffers:
        for layer in model.layers:
            for name in sorted(layer.buffers):
                arrays.append(layer.buffers[name])
    return arrays


def seed_get_flat(model):
    arrays = _seed_all_arrays(model)
    return np.concatenate([a.ravel() for a in arrays]) if arrays else np.empty(0)


def seed_set_flat(model, flat):
    arrays = _seed_all_arrays(model)
    expected = sum(a.size for a in arrays)
    flat = np.asarray(flat, dtype=float).ravel()
    if flat.size != expected:
        raise ValueError("size mismatch")
    offset = 0
    for a in arrays:
        a[...] = flat[offset : offset + a.size].reshape(a.shape)
        offset += a.size


def seed_zero_grad(model):
    for layer in model.layers:
        for g in layer.grads.values():
            g.fill(0.0)


def seed_sgd_step(pairs, lr):
    for p, g in pairs:
        p -= lr * g


# ---------------------------------------------------------------------------
# timing helpers
# ---------------------------------------------------------------------------

def best_of(fn, reps: int, trials: int) -> float:
    """Minimum mean-per-call seconds over ``trials`` batches of ``reps``."""
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return min(times)


def _transfer_ops(model, with_legacy: bool):
    """The four whole-model operations, as (legacy, arena) thunk pairs."""
    flat = model.get_flat_weights()
    for _, g in model.parameters():
        g += 0.5  # non-trivial gradients for the step benches
    pairs = model.parameters()
    arena_opt = SGD(model, lr=0.01)
    return {
        "get_flat_weights": (
            (lambda: seed_get_flat(model)) if with_legacy else None,
            lambda: model.get_flat_weights(),
        ),
        "set_flat_weights": (
            (lambda: seed_set_flat(model, flat)) if with_legacy else None,
            lambda: model.set_flat_weights(flat),
        ),
        "zero_grad": (
            (lambda: seed_zero_grad(model)) if with_legacy else None,
            lambda: model.zero_grad(),
        ),
        "sgd_step": (
            (lambda: seed_sgd_step(pairs, 0.01)) if with_legacy else None,
            lambda: arena_opt.step(),
        ),
    }


def bench_transfer(reps: int, trials: int) -> dict:
    """Seed-loop (float64) vs arena (float64 and float32) timings."""
    results = {}
    factories = {
        # The scale the test harness trains at (ci preset): this is the
        # model whose weight vector crosses the executor boundary for
        # every client, every round.
        "mlp": lambda rng: mlp(64, 10, rng, hidden=(64, 32)),
        # A conv model for the many-array regime (12 arrays).
        "vgg_mini": lambda rng: vgg_mini(1, 8, 10, rng),
    }
    for name, factory in factories.items():
        set_default_dtype("float64")
        model64 = factory(np.random.default_rng(0))
        ops64 = _transfer_ops(model64, with_legacy=True)
        set_default_dtype("float32")
        model32 = factory(np.random.default_rng(0))
        ops32 = _transfer_ops(model32, with_legacy=False)
        set_default_dtype("float64")

        entry = {
            "dim": int(model64.flat_state().size),
            "n_arrays": len(_seed_all_arrays(model64)),
        }
        for op in ops64:
            t_legacy = best_of(ops64[op][0], reps, trials)
            t_arena64 = best_of(ops64[op][1], reps, trials)
            t_arena32 = best_of(ops32[op][1], reps, trials)
            entry[op] = {
                "legacy_float64_us": round(t_legacy * 1e6, 3),
                "arena_float64_us": round(t_arena64 * 1e6, 3),
                "arena_float32_us": round(t_arena32 * 1e6, 3),
                # Layout change alone, at identical dtype.
                "speedup_arena": round(t_legacy / t_arena64, 2),
                # What the substrate ships now vs what the seed did.
                "speedup_total": round(t_legacy / t_arena32, 2),
            }
        results[name] = entry
    return results


def bench_rounds(rounds: int, n_train: int, image_size: int, workers: int) -> dict:
    """Mean round wall-clock per (dtype, backend) on a conv workload."""
    out: dict = {}
    n_clients = 8
    for dtype in ("float64", "float32"):
        set_default_dtype(dtype)
        spec = SyntheticImageSpec(
            num_classes=10, channels=1, image_size=image_size, noise=0.6
        )
        train, _ = make_synthetic_dataset(spec, n_train, 64, np.random.default_rng(0))
        parts = iid_partition(train.y, n_clients, np.random.default_rng(1))

        factory = partial(simple_cnn, 1, image_size, 10)
        dtype_entry: dict = {}
        for backend in ("serial", "process"):
            clients = make_clients(train, parts)
            executor = make_executor(
                backend, clients, factory,
                workers=workers if backend == "process" else None,
            )
            sim = FederatedSimulation(
                clients, None, factory, FedAvg(),
                FLConfig(rounds=rounds, clients_per_round=n_clients,
                         local_epochs=1, batch_size=32, lr=0.05, seed=0),
                executor=executor,
            )
            with sim:
                sim.run_round(0)  # warm-up (process pool spin-up, BLAS init)
                t0 = time.perf_counter()
                for r in range(1, rounds + 1):
                    sim.run_round(r)
                elapsed = time.perf_counter() - t0
                dim = int(sim.global_weights.size)
                itemsize = int(sim.global_weights.dtype.itemsize)
            dtype_entry[backend] = {"mean_round_s": round(elapsed / rounds, 5)}
        dtype_entry["payload_bytes"] = dim * itemsize
        dtype_entry["model_dim"] = dim
        out[dtype] = dtype_entry
    set_default_dtype("float64")
    out["speedup_float32"] = {
        backend: round(
            out["float64"][backend]["mean_round_s"]
            / out["float32"][backend]["mean_round_s"],
            3,
        )
        for backend in ("serial", "process")
    }
    return out


CONV_SPLIT_BATCHES = (20, 25)


def conv_split(layer: Conv2D, x: np.ndarray, grad: np.ndarray, micros) -> dict:
    """One ``Conv2D``'s forward and backward part by part, each part the
    expression ``Conv2D.forward`` / ``backward`` runs, summed over its
    sample chunks (``layers._sample_chunks``), in microseconds."""
    k, s, p, o = layer.kernel_size, layer.stride, layer.padding, layer.out_channels
    n, c, h, w = x.shape
    w2d = layer.params["W"].reshape(o, -1)
    span = grad.shape[2] * grad.shape[3]
    parts = [
        (first, stop, slice(first * span, stop * span))
        for first, stop in layers._sample_chunks(n, span, w2d.shape[1], o)
    ]
    cols = np.empty((w2d.shape[1], n * span), x.dtype)
    out = np.empty((o, n * span), x.dtype)
    g = np.ascontiguousarray(grad.transpose(1, 0, 2, 3)).reshape(o, -1)
    dw = np.empty_like(w2d)
    gcols = [w2d.T @ g[:, part] for _, _, part in parts]
    xp = np.zeros((c, n, h + 2 * p, w + 2 * p), x.dtype)

    def fill():
        for first, stop, part in parts:
            F.unfold(x[first:stop], k, k, s, p, out=cols[:, part])

    def forward_gemm():
        for _, _, part in parts:
            np.matmul(w2d, cols[:, part], out=out[:, part])

    def gcols_gemm():
        for _, _, part in parts:
            w2d.T @ g[:, part]

    def fold():  # accumulates into xp on every call: only the time is read
        for (first, stop, _), chunk in zip(parts, gcols):
            F.fold(chunk, (stop - first, c, h, w), k, k, s, p, out=xp[:, first:stop])

    fill()
    return {  # in this order: the timed backward reads the timed forward's cache
        "chunks": len(parts),
        "forward_training_us": micros(lambda: layer.forward(x, training=True)),
        "fill_us": micros(fill),
        "forward_gemm_us": micros(forward_gemm),
        "backward_us": micros(lambda: layer.backward(grad)),
        "dw_gemm_us": micros(lambda: np.matmul(g, cols.T, out=dw)),
        "gcols_gemm_us": micros(gcols_gemm),
        "fold_us": micros(fold),
    }


def bench_conv_layers(reps: int, trials: int) -> dict:
    """Per-layer microseconds of ``simple_cnn`` (float32, N = 25, 32x32),
    and each ``Conv2D`` part by part at every ``CONV_SPLIT_BATCHES`` size."""
    batch, image_size = 25, 32
    set_default_dtype("float32")
    try:
        rng = np.random.default_rng(0)
        model = simple_cnn(1, image_size, 10, rng)
        acts = [rng.normal(size=(batch, 1, image_size, image_size)).astype(np.float32)]
        for layer in model.layers:
            acts.append(layer.forward(acts[-1], training=True))
        # Each layer's backward is timed on the gradient the layer above
        # hands it in a real step, in that memory layout (channel-major
        # into the first pool, NCHW into the second), not on a fresh
        # C-contiguous array.
        grads = [rng.normal(size=acts[-1].shape).astype(np.float32)]
        for layer in model.layers[:0:-1]:
            grads.insert(0, layer.backward(grads[0]))

        def micros(fn) -> float:
            return round(best_of(fn, reps, trials) * 1e6, 1)

        rows, split = [], []
        for i, layer in enumerate(model.layers):
            x, grad = acts[i], grads[i]
            layer.forward(x, training=True)  # this layer's cache, as in the chain
            name = f"{i}:{type(layer).__name__}"
            if isinstance(layer, Conv2D):
                split += [
                    {"layer": name, "batch": n, **conv_split(layer, x[:n], grad[:n], micros)}
                    for n in CONV_SPLIT_BATCHES
                ]
            rows.append({
                "layer": name,
                "forward_inference_us": micros(lambda: layer.forward(x)),
                "forward_training_us": micros(lambda: layer.forward(x, training=True)),
                # The training cache survives repeated backwards.
                "backward_us": micros(lambda: layer.backward(grad)),
            })
    finally:
        set_default_dtype("float64")
    columns = ("forward_inference_us", "forward_training_us", "backward_us")
    return {
        "model": "simple_cnn", "dtype": "float32", "batch": batch,
        "image_size": image_size, "layers": rows,
        "total": {c: round(sum(r[c] for r in rows), 1) for c in columns},
        "conv_split": split,
    }


def bench_train_step(reps: int, trials: int) -> dict:
    """Microseconds per part of one training step (float64, warm caches)."""
    rng = np.random.default_rng(0)
    batch, shard = 10, 200

    def micros(fn, reps=reps) -> float:
        return round(best_of(fn, reps, trials) * 1e6, 2)

    model = mlp(192, 30, rng, hidden=(64, 32))
    data = ArrayDataset(
        rng.normal(size=(shard, 3, 8, 8)), rng.integers(0, 30, size=shard), 30
    )
    loss, opt = SoftmaxCrossEntropy(), SGD(model, lr=0.01)
    xb, yb = next(data.batches(batch, rng=rng))
    logits = model.forward(xb, training=True)

    def loss_pass():
        loss.forward(logits, yb)
        return loss.backward()

    grad = loss_pass()

    def step():
        model.train_batch(loss, xb, yb)
        opt.step()

    def epoch():
        for _ in data.batches(batch, rng=rng):
            pass

    mlp_rows = {
        "forward_us": micros(lambda: model.forward(xb, training=True)),
        "loss_us": micros(loss_pass),  # forward + backward of the loss
        "backward_us": micros(lambda: model.backward(grad, input_grad=False)),
        "optimizer_us": micros(opt.step),
        # One epoch over the shard (permutation included), per batch.
        "batch_fetch_us": round(
            micros(epoch, reps=max(1, reps // 20)) / (shard // batch), 2
        ),
        "step_us": micros(step),  # train_batch + optimizer step, batch in hand
    }

    critic = make_value_network(30, 10, rng)  # the agent of sync_feddrl_hier
    target = make_value_network(30, 10, rng)
    adam = Adam(critic, lr=1e-3)
    critic.flat_grads()[:] = rng.normal(size=critic.num_parameters())
    arena_reps = max(1, reps // 10)
    return {
        "mlp": {"layout": "192-64-32-30", "batch": batch, "shard": shard,
                "dim": model.num_parameters(), **mlp_rows},
        "ddpg_arena": {
            "dim": critic.num_parameters(),
            "adam_step_us": micros(adam.step, reps=arena_reps),
            "soft_update_us": micros(
                lambda: soft_update(target, critic, 0.02), reps=arena_reps
            ),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long pass with the same JSON shape")
    parser.add_argument("--out", help="default: BENCH_substrate.json, or the "
                        "git-ignored bench_smoke/BENCH_substrate.json under --smoke")
    args = parser.parse_args(argv)

    if args.smoke:
        reps, trials = 300, 3
        layer_reps = 5
        rounds, n_train, image_size, workers = 2, 400, 8, 2
    else:
        reps, trials = 3000, 7
        layer_reps = 50
        rounds, n_train, image_size, workers = 4, 4000, 16, 4

    t_start = time.perf_counter()
    transfer = bench_transfer(reps, trials)
    rounds_result = bench_rounds(rounds, n_train, image_size, workers)
    conv_layers = bench_conv_layers(layer_reps, trials)
    train_step = bench_train_step(reps, trials)

    payload = {
        "schema": "bench_substrate/v1",
        "smoke": args.smoke,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        # BLAS threads the GEMM rows ran with (unset = the library's default).
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "transfer": transfer,
        "round": rounds_result,
        "conv_layers": conv_layers,
        "train_step": train_step,
        "bench_wall_s": round(time.perf_counter() - t_start, 2),
    }
    out_path = os.path.abspath(args.out or os.path.join(
        os.path.dirname(__file__), "..", "bench_smoke" if args.smoke else "",
        "BENCH_substrate.json"))
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")

    mlp_t = transfer["mlp"]
    print(f"wrote {out_path}")
    for kind, key in [("arena", "speedup_arena"), ("total", "speedup_total")]:
        print(f"mlp (D={mlp_t['dim']}) {kind}: "
              f"set {mlp_t['set_flat_weights'][key]}x, "
              f"get {mlp_t['get_flat_weights'][key]}x, "
              f"zero_grad {mlp_t['zero_grad'][key]}x, "
              f"sgd_step {mlp_t['sgd_step'][key]}x vs seed loops")
    for backend, s in rounds_result["speedup_float32"].items():
        f64 = rounds_result["float64"][backend]["mean_round_s"]
        f32 = rounds_result["float32"][backend]["mean_round_s"]
        print(f"round/{backend}: {f64:.3f}s (f64) -> {f32:.3f}s (f32) = {s}x")
    print(f"simple_cnn float32 N={conv_layers['batch']} per layer (us): "
          "forward-inference / forward-training / backward")
    for row in conv_layers["layers"] + [{"layer": "total", **conv_layers["total"]}]:
        print(f"  {row['layer']:<12} {row['forward_inference_us']:>9.1f} "
              f"{row['forward_training_us']:>9.1f} {row['backward_us']:>9.1f}")
    parts = [k for k in conv_layers["conv_split"][0] if k.endswith("_us")]
    print("Conv2D split (us): " + " / ".join(k[:-3] for k in parts))
    for row in conv_layers["conv_split"]:
        print(f"  {row['layer']:<10} N={row['batch']:<3} chunks={row['chunks']:<2} "
              + " ".join(f"{row[k]:>8.1f}" for k in parts))
    step, arena = train_step["mlp"], train_step["ddpg_arena"]
    print(f"mlp {step['layout']} batch-{step['batch']} step (us): "
          + ", ".join(f"{k[:-3]} {step[k]}" for k in step if k.endswith("_us")))
    print(f"ddpg arena (D={arena['dim']}): adam step {arena['adam_step_us']} us, "
          f"soft_update {arena['soft_update_us']} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
