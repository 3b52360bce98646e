"""Ablations of FedDRL's design choices.

The paper motivates four design decisions without isolating them; each
bench here toggles one choice with everything else held fixed:

* TD-prioritised vs uniform replay (Algorithm 1, lines 1–2).
* Two-stage pretraining vs basic training (Section 3.4.2).
* The fairness (max-min gap) term of the reward (eq. 7).
* The sigma-constraint coefficient beta (eq. 6).
"""

import pytest

from repro.harness.ablations import (
    ablation_fairness_weight,
    ablation_replay_strategy,
    ablation_sigma_beta,
    ablation_two_stage,
)


@pytest.mark.benchmark(group="ablations")
def test_ablation_replay_strategy(benchmark, once):
    out = once(benchmark, ablation_replay_strategy,
               dataset="fashion", partition="CE", scale="bench", n_clients=10, seed=0,
               rounds=60)
    print(f"\nAblation: replay sampling — {out}")
    assert set(out) == {"td_prioritized", "uniform"}
    assert all(0 <= v <= 1 for v in out.values())


@pytest.mark.benchmark(group="ablations")
def test_ablation_fairness_weight(benchmark, once):
    out = once(benchmark, ablation_fairness_weight,
               weights=(0.0, 1.0), dataset="fashion", partition="CE",
               scale="bench", n_clients=10, seed=0, rounds=60)
    print("\nAblation: reward fairness term")
    for w, metrics in out.items():
        print(f"  weight={w}: acc={metrics['best_accuracy']:.3f} "
              f"final_loss_var={metrics['final_loss_variance']:.4f}")
    assert set(out) == {0.0, 1.0}


@pytest.mark.benchmark(group="ablations")
def test_ablation_sigma_beta(benchmark, once):
    out = once(benchmark, ablation_sigma_beta,
               betas=(0.1, 0.5, 0.9), dataset="fashion", partition="CE",
               scale="bench", n_clients=10, seed=0, rounds=60)
    print(f"\nAblation: sigma constraint beta — "
          + "  ".join(f"beta={b}:{v:.3f}" for b, v in out.items()))
    assert all(0 <= v <= 1 for v in out.values())


@pytest.mark.benchmark(group="ablations")
def test_ablation_two_stage(benchmark, once):
    out = once(benchmark, ablation_two_stage,
               pretrain_rounds=30, dataset="fashion", partition="CE",
               scale="bench", n_clients=10, seed=0, rounds=60)
    print(f"\nAblation: two-stage vs basic training — {out}")
    assert set(out) == {"basic", "two_stage"}
    assert all(0 <= v <= 1 for v in out.values())
