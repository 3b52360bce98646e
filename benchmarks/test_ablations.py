"""Ablations of FedDRL's design choices.

The paper motivates these design decisions without isolating them; each
bench here toggles one choice with everything else held fixed:

* Two-stage pretraining vs basic training (Section 3.4.2).
* The sigma-constraint coefficient beta (eq. 6).

TD-prioritised replay (Algorithm 1) and the reward's fairness term
(eq. 7) are fixed; README records why.
"""

import pytest

from repro.harness.ablations import ablation_sigma_beta, ablation_two_stage


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
