"""Golden ``history_digest``s pinned before the window-aggregation refactor.

Every digest below was recorded at the parent commit of the PR that merged
the sync round body and the FedBuff/FedAsync flush into one window routine
(``repro.fl.simulation.aggregate_window``).  The matrix reaches every
branch the merge touched — engine x topology x combination rule x mix form,
plus one cell per feature that feeds the window (update attack, lossy codec
with error feedback, markov fleet + dropout, a round deadline, lazy
clients, FedDRL flat and hier).  A refactor of the aggregation path must
leave this file untouched: a changed digest is a changed behaviour.
Every cell moved once since, deliberately, when every generator came to
derive from ``repro.runtime.seeding`` and ``history_digest`` began hashing
each record's participants, impact factors, sizes and losses (old -> new
listed in CHANGES.md).

``scale="ci"`` builds an MLP, so none of those cells runs a ``Conv2D`` or a
pooling layer.  The ``simple_cnn`` cells at the bottom pin the conv path
(float64 and float32, sync engine) and hold it to the two system-wide
invariants: serial == thread == process, killed/resumed == uninterrupted.
The invariants compare two runs made in the same test, so they hold on any
numeric host; only the pin names this host's digest.  A change that
reorders conv arithmetic moves the pins — and only these — once, in a
commit that lists old -> new.
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
    # FedAsync is a FedBuff buffer of one; its cells keep their pinned names.
    "fedasync": dict(aggregation="fedbuff", buffer_size=1, max_concurrency=4,
                     rounds=2),
}
TOPOLOGIES = {"flat": dict(), "hier": dict(topology="hier", n_edges=3)}
AGGREGATORS = ("mean", "krum", "trimmed_mean", "norm_clip")
MIXES = {"mix0.7": dict(server_mix=0.7), "delta": dict(server_mix="delta")}


def _grid() -> dict[str, dict]:
    """engine x topology x combination rule x mix form, before the one-voice
    rule removes the robust rules from the FedAsync cells."""
    cells: dict[str, dict] = {}
    for engine, engine_kw in ENGINES.items():
        for topology, topology_kw in TOPOLOGIES.items():
            if engine == "fedasync" and topology == "hier":
                continue  # three edges need three updates per window
            for aggregator in AGGREGATORS:
                # The barrier engine has no mixing step to vary.
                mixes = {"": {}} if engine == "sync" else MIXES
                for mix, mix_kw in mixes.items():
                    name = "-".join(p for p in (engine, topology, aggregator, mix) if p)
                    cells[name] = {**engine_kw, **topology_kw, **mix_kw,
                                   "aggregator": aggregator}
    return cells


GRID = _grid()
# A robust rule on a one-update window returns that update: config rejects
# the combination instead of running it.
ONE_VOICE = {
    name: cell for name, cell in GRID.items()
    if name.startswith("fedasync") and cell["aggregator"] != "mean"
}


def _matrix() -> dict[str, dict]:
    cells = {name: cell for name, cell in GRID.items() if name not in ONE_VOICE}
    fedbuff = ENGINES["fedbuff"]
    hier = TOPOLOGIES["hier"]
    fleet = dict(availability="markov", dropout_prob=0.2)
    wire = dict(codec="topk+qsgd8", topk_frac=0.1, bandwidth_model="lognormal")
    attack = dict(attack="sign_flip", malicious_fraction=0.25, attack_scale=2.0)
    poison = dict(malicious_fraction=0.25)
    drl = dict(method="feddrl", drl_updates_per_round=2)
    cells.update({
        "sync-attack-krum": {**attack, "aggregator": "krum"},
        "sync-label_flip": {**poison, "attack": "label_flip"},
        "sync-backdoor": {**poison, "attack": "backdoor"},
        "fedbuff-attack-krum-delta": {**fedbuff, **attack, "aggregator": "krum",
                                      "server_mix": "delta"},
        "sync-wire-ef": wire,
        "fedbuff-wire-ef-hier": {**fedbuff, **hier, **wire},
        "sync-fleet": fleet,
        "fedbuff-fleet-fairness": {**fedbuff, **fleet, "dispatch": "fairness"},
        "sync-deadline-drop": dict(deadline_s=1.0),
        "sync-lazy": dict(partition="IID"),
        "fedbuff-lazy-hier-krum": {**fedbuff, **hier, "partition": "IID",
                                   "aggregator": "krum"},
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
        "422f32742fd2852cd64a3d7cc47219a2008933a0d29f982a24938fb574f54491",
    "sync-flat-krum":
        "e43cd3416010d58ab6a13b6ac20106d2ec06d4cbbd619d8c972f6321b6998555",
    "sync-flat-trimmed_mean":
        "81c534cfe475d13c24d473d8b5a177b07ef1f83312adb91cc89a7b8aa3e46973",
    "sync-flat-norm_clip":
        "4b624ac84ec184a9c80357fc2a6044430cff6cc604f85f64c3a158adc9e8c32e",
    "sync-hier-mean":
        "27626deff8c20457962451865229dc394962cc71da47daa53f83f19e10a178d5",
    "sync-hier-krum":
        "fcdb8b6f2e8da0d62fa6ba61b9c2fcde7d0f92cce5907de431a01842714e37e8",
    "sync-hier-trimmed_mean":
        "3019d3ed0119354ca89084c75d8d12e1d4925f5f8dd91fbd45a22ec9d73c040b",
    "sync-hier-norm_clip":
        "828f24e68bdbcb670495f6f905d8f4d8dfdbf0de10b05d15b2760ce828068610",
    "fedbuff-flat-mean-mix0.7":
        "58671646eda837d3477d3b365d36f3dc2aed342e6c2172f653488db3c1a0637d",
    "fedbuff-flat-mean-delta":
        "c1efe9436df7f367220f67fe15617adfc4edc1b075e28eefac2c3d7d6d147c98",
    "fedbuff-flat-krum-mix0.7":
        "ecbd2c010b3b088d1442408f64fe1316e4400795a8ab43fccd346fe34cf9813e",
    "fedbuff-flat-krum-delta":
        "8ad40819e17c7dfe2b2ea91996a1519db18e7016bf98ed4c9b3dea09fea7de1d",
    "fedbuff-flat-trimmed_mean-mix0.7":
        "2a0451f2ae03a4ad5d548f6e74fe83edbf1b3374937c6fa6053e5c0e93fcfc63",
    "fedbuff-flat-trimmed_mean-delta":
        "c1b31dcff6ab5e5668282be9dee684972b6fba9861aea6a81bfe499e02c5df0f",
    "fedbuff-flat-norm_clip-mix0.7":
        "4ed85bcbd20f522349fc222a212df22ab703621960b0bd5c4a5f5cc3678268f2",
    "fedbuff-flat-norm_clip-delta":
        "ade41bdb7de9f289aa5c4a95b50aec5ee837939aacf199fcf41f92016d6af96e",
    "fedbuff-hier-mean-mix0.7":
        "85450b5d406e52cd5ec22c192f0b95b5dfcacffaaa2256f214e7a85101442393",
    "fedbuff-hier-mean-delta":
        "e2c1de0ddcf804a84508c268e947780eb9af859d563ed86b537dbe3e8726801b",
    "fedbuff-hier-krum-mix0.7":
        "6d2a448088068f1ab7566f6ee2972fcd125b20208d5dff66d03ef748b92fff60",
    "fedbuff-hier-krum-delta":
        "3d8a8ed92b6e61a78ee16369f6fa14181fd880195b61e7fd18eee0b95efff6cb",
    "fedbuff-hier-trimmed_mean-mix0.7":
        "4228ba97cf66ada1743e0c5d0e9fbb9448fa8b2ec4e0b4043008826250adcc34",
    "fedbuff-hier-trimmed_mean-delta":
        "228b966ceeb6f900cd5c271031d0740f6c922cb35947991c6b94641540771678",
    "fedbuff-hier-norm_clip-mix0.7":
        "8fab4c5e3f4dce798214e6c9045193e255bc919f8371311f1dc9326c33438d0a",
    "fedbuff-hier-norm_clip-delta":
        "2ad149bb2bf77c93deb895997fdef0be3353ec66aaf7bd36610f870ffc34cde5",
    "fedasync-flat-mean-mix0.7":
        "f1754d5011f23b874c285602632bbbc3bbda282f735ed5f025f3aea9384d203e",
    "fedasync-flat-mean-delta":
        "ccd6add38a7a4cf157a434b34c6c7b04e33e7f2b68112810d7771ad0d6ce9986",
    "sync-attack-krum":
        "d9cf07712a58754af29cc100bb491f0ca3b83451b22313a4c6e27e528e8994f8",
    "fedbuff-attack-krum-delta":
        "2d296f6aee5f02268b9612a398455774a50cc9a3a5185ef463e2259fc8b8fa9f",
    # The two data attacks were recorded while their shards were poisoned
    # in place on an eagerly built client list; the pool now poisons each
    # shard as it creates the client.
    "sync-label_flip":
        "2f43c5dbf93066d4eb9531bdcc2a6a325380fe046cd65e23f85d7b9ca5200230",
    "sync-backdoor":
        "0b5799938fd2c293828f3861f9cfb07bde4ba72cfdd63b72ee2f21e12a5ad711",
    "sync-wire-ef":
        "31f31a92732892378bd35a1c7874abff5d2f8a8beec2c70af6969372e8309fe3",
    "fedbuff-wire-ef-hier":
        "6e47fc2b8d1fc8a396809c9b897e5b102b24c9eed9090a8e909c87505aeda62c",
    "sync-fleet":
        "9f3ee17adb047fdffab9254be02ac3bd85b8a0e87c537d31fb2e34987565a984",
    "fedbuff-fleet-fairness":
        "e0aa47be9720bdd8893b78dd6dd150625f809c53c0c984df34be5f2175471339",
    "sync-deadline-drop":
        "0341118c5683f17732260cdd504945c5ae26c707757f6f98de2ed3000bba471d",
    "sync-lazy":
        "50c36b367898e99b3a1c2c2e1cc4d33aa9c961e5329a9c8145d3d94772763d60",
    "fedbuff-lazy-hier-krum":
        "0ad72f5171ac66c80941159ed0b1531fe5ba2b1442ecfe1e7d1c0b1817b55997",
    # The three FedDRL cells moved once, with the float32 agent and Adam's
    # one-divide form (old -> new listed in that commit's message).
    "sync-feddrl":
        "c5f353df7f723ae893a1e7e629d59243650d999ed03fcc3da9fb3a12cd2999a6",
    "sync-feddrl-hier":
        "953a280ba2fe1f52d97740f1c4328f0d38c34991085fc202453462c48ca6d884",
    "fedbuff-feddrl":
        "c704a3e6e5120fc294de35100dd7ce6e1ab72e6f903d4fc2190e079da8da0605",
    "fedbuff-hinge-staleness":
        "86345526209169be62e05deba69bd8dbbaf8b5f6faafa607d79fd02c044c92ba",
}


def test_matrix_is_fully_pinned():
    assert set(GOLDEN) == set(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_history_digest_matches_parent_commit(name):
    assert digest(CELLS[name]) == GOLDEN[name]


def test_poisoned_shards_are_the_same_on_the_process_backend():
    """Each process worker builds and poisons its own clients' shards."""
    cell = CELLS["sync-backdoor"]
    assert digest({**cell, "backend": "process", "workers": 2}) == digest(cell)


@pytest.mark.parametrize("name", sorted(ONE_VOICE))
def test_robust_rule_on_a_one_update_window_is_rejected(name):
    with pytest.raises(ValueError, match="every window here holds one"):
        ExperimentConfig(**{**BASE, **ONE_VOICE[name]})


# -- the conv path ------------------------------------------------------------

CNN_CELLS = {
    f"sync-simple_cnn-{dtype}": dict(model="simple_cnn", dtype=dtype)
    for dtype in ("float64", "float32")
}
GOLDEN_CNN: dict[str, str] = {
    "sync-simple_cnn-float64":
        "adfe2724095c4ad708fde1d92724b8d88a9037e5120d95f8e23450696113f181",
    "sync-simple_cnn-float32":
        "d64abc4aafc5a3dbcd739d5c6ed345d2381263b3b002489c92f9967be368982f",
}


@pytest.mark.parametrize("name", sorted(CNN_CELLS))
def test_simple_cnn_digest_is_pinned(name):
    assert digest(CNN_CELLS[name]) == GOLDEN_CNN[name]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("name", sorted(CNN_CELLS))
def test_simple_cnn_backends_agree_with_serial(name, backend):
    cell = {**CNN_CELLS[name], "backend": backend, "workers": 2}
    assert digest(cell) == digest(CNN_CELLS[name])


@pytest.mark.parametrize("name", sorted(CNN_CELLS))
def test_simple_cnn_killed_and_resumed_equals_uninterrupted(name, tmp_path, monkeypatch):
    ck = str(tmp_path / "run.ckpt")
    interrupt_after_saves(monkeypatch, 2)
    with pytest.raises(_Interrupted):
        digest({**CNN_CELLS[name], "checkpoint_path": ck})
    monkeypatch.undo()
    assert digest({**CNN_CELLS[name], "resume": ck}) == digest(CNN_CELLS[name])
