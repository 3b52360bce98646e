"""Attack models: seeded malicious sets, data poisoning, update perturbation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.fl.client import ClientUpdate
from repro.fl.robust import (
    ATTACK_MODELS,
    DATA_ATTACKS,
    TRIGGER_VALUE,
    UPDATE_ATTACKS,
    AttackModel,
    apply_trigger,
)


def _dataset(n=40, classes=4, side=4, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, side, side)).astype(np.float32)
    y = rng.integers(0, classes, size=n)
    return ArrayDataset(x, y, classes)


def _update(client_id, weights):
    return ClientUpdate(
        client_id=client_id,
        weights=np.asarray(weights, dtype=np.float64),
        loss_before=1.0,
        loss_after=0.5,
        n_samples=10,
    )


class TestMaliciousSet:
    def test_deterministic_in_seed(self):
        a = AttackModel("sign_flip", 20, 0.25, seed=7)
        b = AttackModel("sign_flip", 20, 0.25, seed=7)
        assert a.malicious == b.malicious

    def test_shared_across_attack_names(self):
        """The compromised subset is a property of the fleet, not of what
        the adversary does with it — sweeps compare attacks on the same
        malicious ids."""
        sets = {
            name: AttackModel(name, 20, 0.25, seed=7).malicious
            for name in ATTACK_MODELS
        }
        assert len(set(sets.values())) == 1

    def test_varies_with_seed(self):
        sets = {AttackModel("sign_flip", 30, 0.3, seed=s).malicious for s in range(8)}
        assert len(sets) > 1

    def test_size_and_floor(self):
        assert len(AttackModel("sign_flip", 20, 0.25, seed=0).malicious) == 5
        # At least one client is compromised whenever an attack is on.
        assert len(AttackModel("sign_flip", 5, 0.05, seed=0).malicious) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackModel("bogus", 10, 0.2, seed=0)
        with pytest.raises(ValueError):
            AttackModel("sign_flip", 10, 0.0, seed=0)
        with pytest.raises(ValueError):
            AttackModel("sign_flip", 10, 0.2, seed=0, scale=0.0)

    def test_removed_attack_is_rejected(self):
        assert "ipm" not in ATTACK_MODELS and "ipm" not in UPDATE_ATTACKS
        with pytest.raises(ValueError, match="attack must be one of"):
            AttackModel("ipm", 10, 0.2, seed=0)


class TestDataPoisoning:
    def test_label_flip_is_directed(self):
        attack = AttackModel("label_flip", 10, 0.2, seed=3)
        cid = min(attack.malicious)
        ds = _dataset()
        poisoned = attack.poison_dataset(cid, ds)
        np.testing.assert_array_equal(poisoned.y, (ds.y + 1) % ds.num_classes)
        np.testing.assert_array_equal(poisoned.x, ds.x)

    def test_honest_shards_untouched(self):
        attack = AttackModel("label_flip", 10, 0.2, seed=3)
        honest = next(c for c in range(10) if not attack.is_malicious(c))
        ds = _dataset()
        assert attack.poison_dataset(honest, ds) is ds

    def test_update_attacks_leave_data_alone(self):
        for name in UPDATE_ATTACKS:
            attack = AttackModel(name, 10, 0.2, seed=3)
            ds = _dataset()
            assert attack.poison_dataset(min(attack.malicious), ds) is ds

    def test_backdoor_stamps_trigger_and_relabels(self):
        attack = AttackModel(
            "backdoor", 10, 0.2, seed=3, backdoor_target=1, poison_fraction=0.5
        )
        cid = min(attack.malicious)
        ds = _dataset()
        poisoned = attack.poison_dataset(cid, ds)
        changed = np.nonzero(poisoned.y != ds.y)[0]
        triggered = np.nonzero((poisoned.x[:, :, 0, 0] == TRIGGER_VALUE).all(axis=1))[0]
        assert len(triggered) == round(0.5 * len(ds))
        assert set(changed) <= set(triggered)
        assert (poisoned.y[triggered] == 1).all()

    def test_backdoor_mask_is_static_per_client(self):
        attack = AttackModel("backdoor", 10, 0.2, seed=3)
        cid = min(attack.malicious)
        ds = _dataset()
        a = attack.poison_dataset(cid, ds)
        b = attack.poison_dataset(cid, ds)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_backdoor_test_set(self):
        attack = AttackModel("backdoor", 10, 0.2, seed=3, backdoor_target=2)
        test = _dataset(seed=1)
        bd = attack.backdoor_test_set(test)
        assert len(bd) == int((test.y != 2).sum())
        assert (bd.y == 2).all()
        assert (bd.x[:, :, 0, 0] == TRIGGER_VALUE).all()
        # The original test set is not mutated.
        assert not (test.x[:, :, 0, 0] == TRIGGER_VALUE).all()

    def test_backdoor_test_set_none_for_other_attacks(self):
        for name in ATTACK_MODELS:
            if name == "backdoor":
                continue
            attack = AttackModel(name, 10, 0.2, seed=3)
            assert attack.backdoor_test_set(_dataset()) is None

    def test_trigger_caps_at_image_size(self):
        x = np.zeros((2, 1, 2, 2), dtype=np.float32)
        out = apply_trigger(x, size=3, value=5.0)
        assert (out == 5.0).all()


class TestPerturb:
    def _attack(self, name, scale=2.0):
        attack = AttackModel(name, 10, 0.2, seed=3, scale=scale)
        return attack, min(attack.malicious)

    def test_honest_update_passes_through(self):
        attack, _ = self._attack("sign_flip")
        honest = next(c for c in range(10) if not attack.is_malicious(c))
        u = _update(honest, [1.0, 2.0])
        assert attack.perturb(u, np.zeros(2)) is u

    def test_sign_flip(self):
        attack, cid = self._attack("sign_flip", scale=3.0)
        ref = np.array([1.0, -1.0])
        u = _update(cid, ref + np.array([0.5, 0.25]))
        out = attack.perturb(u, ref)
        np.testing.assert_allclose(out.weights, ref - 3.0 * np.array([0.5, 0.25]))

    def test_scale(self):
        attack, cid = self._attack("scale", scale=4.0)
        ref = np.array([1.0, -1.0])
        u = _update(cid, ref + np.array([0.5, 0.25]))
        out = attack.perturb(u, ref)
        np.testing.assert_allclose(out.weights, ref + 4.0 * np.array([0.5, 0.25]))

    def test_data_attack_passthrough_at_unit_scale(self):
        for name in DATA_ATTACKS:
            attack = AttackModel(name, 10, 0.2, seed=3, scale=1.0)
            u = _update(min(attack.malicious), [1.0, 2.0])
            assert attack.perturb(u, np.zeros(2)) is u

    def test_data_attack_boost_above_unit_scale(self):
        attack = AttackModel("backdoor", 10, 0.2, seed=3, scale=5.0)
        cid = min(attack.malicious)
        ref = np.array([1.0, 1.0])
        u = _update(cid, ref + np.array([0.1, -0.1]))
        out = attack.perturb(u, ref)
        np.testing.assert_allclose(out.weights, ref + 5.0 * np.array([0.1, -0.1]))

    def test_preserves_dtype(self):
        attack, cid = self._attack("sign_flip")
        u = ClientUpdate(cid, np.ones(4, dtype=np.float32), 1.0, 0.5, 8)
        out = attack.perturb(u, np.zeros(4, dtype=np.float32))
        assert out.weights.dtype == np.float32
