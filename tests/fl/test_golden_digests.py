"""Golden ``history_digest``s pinned before the window-aggregation refactor.

Every digest below was recorded at the parent commit of the PR that merged
the sync round body and the FedBuff/FedAsync flush into one window routine
(``repro.fl.simulation.aggregate_window``).  The matrix reaches every
branch the merge touched — engine x topology x combination rule x mix form,
plus one cell per feature that feeds the window (update attack, lossy codec
with error feedback, markov fleet + dropout, ``drop`` deadline, lazy
clients, FedDRL flat and hier).  A refactor of the aggregation path must
leave this file untouched: a changed digest is a changed behaviour.

``scale="ci"`` builds an MLP, so none of those cells runs a ``Conv2D`` or a
pooling layer.  The ``simple_cnn`` cells at the bottom pin the conv path
(float64 and float32, sync engine) and hold it to the two system-wide
invariants: serial == thread == process, killed/resumed == uninterrupted.
A change that reorders conv arithmetic moves these — and only these — once,
in a commit that lists old -> new.
"""

from __future__ import annotations

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.reporting import history_digest
from repro.harness.runner import run_experiment
from tests.harness.test_checkpoint import _Interrupted, interrupt_after_saves

BASE = dict(
    scale="ci", dataset="mnist", partition="CE", method="fedavg",
    n_clients=12, clients_per_round=8, rounds=5, n_train=360, n_test=120,
    local_epochs=1, seed=0, latency_model="lognormal",
    straggler_fraction=0.25,
)
ENGINES = {
    "sync": dict(),
    "fedbuff": dict(aggregation="fedbuff", buffer_size=5, max_concurrency=8),
    "fedasync": dict(aggregation="fedasync", max_concurrency=4, rounds=2),
}
TOPOLOGIES = {"flat": dict(), "hier": dict(topology="hier", n_edges=3)}
AGGREGATORS = ("mean", "krum", "trimmed_mean", "norm_clip")
MIXES = {"mix0.7": dict(server_mix=0.7), "delta": dict(server_mix="delta")}


def _matrix() -> dict[str, dict]:
    cells: dict[str, dict] = {}
    for engine, engine_kw in ENGINES.items():
        for topology, topology_kw in TOPOLOGIES.items():
            if engine == "fedasync" and topology == "hier":
                continue  # one update per flush: nothing to fold
            for aggregator in AGGREGATORS:
                # The barrier engine has no mixing step to vary.
                mixes = {"": {}} if engine == "sync" else MIXES
                for mix, mix_kw in mixes.items():
                    name = "-".join(p for p in (engine, topology, aggregator, mix) if p)
                    cells[name] = {**engine_kw, **topology_kw, **mix_kw,
                                   "aggregator": aggregator}
    fedbuff = ENGINES["fedbuff"]
    hier = TOPOLOGIES["hier"]
    fleet = dict(availability="markov", dropout_prob=0.2)
    wire = dict(codec="topk+qsgd8", topk_frac=0.1, bandwidth_model="lognormal")
    attack = dict(attack="sign_flip", malicious_fraction=0.25, attack_scale=2.0)
    drl = dict(method="feddrl", drl_updates_per_round=2)
    cells.update({
        "sync-attack-krum": {**attack, "aggregator": "krum"},
        "fedbuff-attack-krum-delta": {**fedbuff, **attack, "aggregator": "krum",
                                      "server_mix": "delta"},
        "sync-wire-ef": wire,
        "fedbuff-wire-ef-hier": {**fedbuff, **hier, **wire},
        "sync-fleet": fleet,
        "fedbuff-fleet-fairness": {**fedbuff, **fleet, "dispatch": "fairness"},
        "sync-deadline-drop": dict(deadline_s=1.0, deadline_policy="drop"),
        "sync-lazy": dict(fleet_mode="lazy", partition="IID"),
        "fedbuff-lazy-hier-krum": {**fedbuff, **hier, "fleet_mode": "lazy",
                                   "partition": "IID", "aggregator": "krum"},
        "sync-feddrl": drl,
        "sync-feddrl-hier": {**drl, **hier},
        "fedbuff-feddrl": {**fedbuff, **drl},
        "fedbuff-hinge-staleness": {**fedbuff, "staleness": "hinge"},
    })
    return cells


CELLS = _matrix()


def digest(overrides: dict) -> str:
    result = run_experiment(ExperimentConfig(**{**BASE, **overrides}))
    return history_digest(result.history)


GOLDEN: dict[str, str] = {
    "sync-flat-mean":
        "1cd7d64d7dbd5ea08f0a6510475bdc382cc8a5295ebdb9e8542e3124aada85ad",
    "sync-flat-krum":
        "b14e628e32e201afe66e87d08fb2f7290326034a54ffc77262827bc2a127416c",
    "sync-flat-trimmed_mean":
        "a011bc44cce8f75cef753fae922cc081749eb02d45f4311478ce5275f6dfc5c0",
    "sync-flat-norm_clip":
        "134266b506c507905754041a9bbf439b044bddefd68c13e3192d02d7928df408",
    "sync-hier-mean":
        "700acdb808a8b96c22787371549ee8b1126eac09d94c2709427a80e939aa1ba1",
    "sync-hier-krum":
        "381a0af8876cd75f7ec73c0f5e23cd10ce167cacabc8a0be387ab3f0855c5999",
    "sync-hier-trimmed_mean":
        "a569e81fbf2033f46998f0ac22277171ea71ed6ff3236af25efa891e3a8dba4c",
    "sync-hier-norm_clip":
        "348f2b5a4613880d228dd4251091eea762aa4cf1e31e90b7365040c3f3fd1242",
    "fedbuff-flat-mean-mix0.7":
        "68b5d8b6c919399b571927658025da531ee52a256aa09515cef660390645fa27",
    "fedbuff-flat-mean-delta":
        "8d1e5eac7e6b84c7f4a73e39e5fa56c93d3790eb7eb4c79f14e8b8c55f124860",
    "fedbuff-flat-krum-mix0.7":
        "df74814e11b11dcec5977d5b46b448e41596d7a6c225ed32b7d6dd0cb38d952f",
    "fedbuff-flat-krum-delta":
        "7b3faaaab5721513aadd5d2be3c6f0e723a75c2f1c2427e043da3ed3d48ff3d0",
    "fedbuff-flat-trimmed_mean-mix0.7":
        "3327250b7588aa114eccfafc807766c4a0f750b324461d6a41ff771cafde12b7",
    "fedbuff-flat-trimmed_mean-delta":
        "033a03ada73e6b483050d7d980265108590399d7a7a9ae95dd8bcbc13106635e",
    "fedbuff-flat-norm_clip-mix0.7":
        "0fe945ea42e08958c8e106710fa6672b7892bec6b23a1677c280cdd28d7a49d4",
    "fedbuff-flat-norm_clip-delta":
        "0c7e152bfb8bcc2da70897ae04ab968e5f8879220aa10118b6e9a2662688c32a",
    "fedbuff-hier-mean-mix0.7":
        "f588f5a8235b2d53110e744b975d2ba5b9b51e5242eeb7215acb9934b4e987f3",
    "fedbuff-hier-mean-delta":
        "e63232084881d766431116c41c78e80baeb16c02cf7af34c24b27891587729ab",
    "fedbuff-hier-krum-mix0.7":
        "5806c60a4bb77cf7521e794760f5f83ed17b6a634cbdb2efcd2111dd806f00b3",
    "fedbuff-hier-krum-delta":
        "6a0ea63402bdce4835d72451dc473cb64cc767a3b001b2fce88dd5fae701bb82",
    "fedbuff-hier-trimmed_mean-mix0.7":
        "a9d7580997fe90de98cc82a634970de924d5532a6a73ed85e011f8249ae87821",
    "fedbuff-hier-trimmed_mean-delta":
        "f6f4c87dd232adada237a3948eab255b5b66a9deb95d874b2cae8ded5b99e4b7",
    "fedbuff-hier-norm_clip-mix0.7":
        "d742d160c3f9b4f0db3e02f28e0b7cb0495110237c8bd950529dea8689a38d3a",
    "fedbuff-hier-norm_clip-delta":
        "6f37505fae54d59047cba805b1e22d5c8d2f550297c7a08a28bada48173f7b3b",
    "fedasync-flat-mean-mix0.7":
        "582f2cf9249dd7adc9dbaaf345eb61fbfd0716a14e8bf8d11af4598016a5de76",
    "fedasync-flat-mean-delta":
        "04e2520589ef319e8654fe6bb98940c5c2fb7db5647c05f295031971bbc2a6b4",
    "fedasync-flat-krum-mix0.7":
        "e7ab46ee8bfba7eaad760ab6f50430b57dbcb4bca27b9560d8cb4709b6addad1",
    "fedasync-flat-krum-delta":
        "04e2520589ef319e8654fe6bb98940c5c2fb7db5647c05f295031971bbc2a6b4",
    "fedasync-flat-trimmed_mean-mix0.7":
        "e7ab46ee8bfba7eaad760ab6f50430b57dbcb4bca27b9560d8cb4709b6addad1",
    "fedasync-flat-trimmed_mean-delta":
        "04e2520589ef319e8654fe6bb98940c5c2fb7db5647c05f295031971bbc2a6b4",
    "fedasync-flat-norm_clip-mix0.7":
        "e7ab46ee8bfba7eaad760ab6f50430b57dbcb4bca27b9560d8cb4709b6addad1",
    "fedasync-flat-norm_clip-delta":
        "04e2520589ef319e8654fe6bb98940c5c2fb7db5647c05f295031971bbc2a6b4",
    "sync-attack-krum":
        "bf4b0a83d5a005dd12c4032018bd82a922b4ba276ec4061fb37de1e72ec75295",
    "fedbuff-attack-krum-delta":
        "6adfcb78f7a20bd868399be7ec41e2b8cff6e08ab68f298f345fb10896598e50",
    "sync-wire-ef":
        "41150c22bc664b086457b2fefee4db072b9cd7e2985796ffb078c14ed1427113",
    "fedbuff-wire-ef-hier":
        "509e8fea700c08167724b11c7a9adb3a4b51e8323116584fb2115a1d6ec7cae8",
    "sync-fleet":
        "7dbbf06928711d42174fc8f1a3c3975ce125ac2646056ff39d57da562c29e53f",
    "fedbuff-fleet-fairness":
        "c62ae513954c41e7884eaebedec080cf79688668ac9ad3bcfb2d9c7a657c5536",
    "sync-deadline-drop":
        "598cfd1661a9eaa4aa78bf4f40f151bb4cf83c92d9077ce06499732b2d2d221c",
    "sync-lazy":
        "51bb13efe2f72c678dc1b74252c4c5f2a8e5d65e27f308d2db625c84ff12663a",
    "fedbuff-lazy-hier-krum":
        "cfc5d0f6058c6f22366dc0944f15791627d303de72ad0dc832d2885409ab0bd7",
    # The three FedDRL cells moved once, with the float32 agent and Adam's
    # one-divide form (old -> new listed in that commit's message).
    "sync-feddrl":
        "c1ad55bfc7ea1d8abd6862c5b61b2b2d4a8250e4a118119eade88f0c5e128813",
    "sync-feddrl-hier":
        "f1ff4cdd28f83d3c4cc2c92a9ba2bcf79dd2ed668fcdd4fcd099e51258c2a5d0",
    "fedbuff-feddrl":
        "87d290382ac50a5d207bf1744e38a9bbeba4b36bbc3aaf4d70de0785a11b962b",
    "fedbuff-hinge-staleness":
        "513c394935b2302ca10cf3f1817823a00fba9ad54c87834c567dfe9263292973",
}


def test_matrix_is_fully_pinned():
    assert set(GOLDEN) == set(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_history_digest_matches_parent_commit(name):
    assert digest(CELLS[name]) == GOLDEN[name]


# -- the conv path ------------------------------------------------------------

CNN_CELLS = {
    f"sync-simple_cnn-{dtype}": dict(model="simple_cnn", dtype=dtype)
    for dtype in ("float64", "float32")
}
GOLDEN_CNN: dict[str, str] = {
    "sync-simple_cnn-float64":
        "2105da0472286acf88c3391dc2594f025042cf8c4bc74bad369e83d963160de1",
    "sync-simple_cnn-float32":
        "22bfb7f9519b031b7f015be84cc495283da2cf386d1b28d637e41d10afda4695",
}


@pytest.mark.parametrize("name", sorted(CNN_CELLS))
def test_simple_cnn_digest_is_pinned(name):
    assert digest(CNN_CELLS[name]) == GOLDEN_CNN[name]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("name", sorted(CNN_CELLS))
def test_simple_cnn_backends_agree_with_serial(name, backend):
    cell = {**CNN_CELLS[name], "backend": backend, "workers": 2}
    assert digest(cell) == GOLDEN_CNN[name]


@pytest.mark.parametrize("name", sorted(CNN_CELLS))
def test_simple_cnn_killed_and_resumed_equals_uninterrupted(name, tmp_path, monkeypatch):
    ck = str(tmp_path / "run.ckpt")
    interrupt_after_saves(monkeypatch, 2)
    with pytest.raises(_Interrupted):
        digest({**CNN_CELLS[name], "checkpoint_path": ck})
    monkeypatch.undo()
    assert digest({**CNN_CELLS[name], "resume": ck}) == GOLDEN_CNN[name]
