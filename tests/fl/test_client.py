"""Tests for client local training and the upload tuple."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.fl.client import Client, ClientUpdate, make_clients


def _rng() -> np.random.Generator:
    """The batch-order generator a runtime would pass for one cell."""
    return np.random.default_rng(0)


class TestClientUpdate:
    def test_validates_sample_count(self):
        with pytest.raises(ValueError):
            ClientUpdate(0, np.zeros(4), 1.0, 0.5, 0)

    def test_validates_finite_losses(self):
        with pytest.raises(ValueError):
            ClientUpdate(0, np.zeros(4), float("inf"), 0.5, 10)

    def test_coerces_weights(self):
        u = ClientUpdate(0, [1.0, 2.0], 1.0, 0.5, 3)
        assert isinstance(u.weights, np.ndarray)


class TestClient:
    def test_empty_dataset_rejected(self):
        ds = ArrayDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            Client(0, ds)

    def test_local_train_returns_complete_update(self, tiny_clients, tiny_model_factory):
        client = tiny_clients[0]
        model = tiny_model_factory(np.random.default_rng(0))
        w0 = model.get_flat_weights()
        update = client.local_train(model, w0, epochs=1, lr=0.05, batch_size=16, rng=_rng())
        assert update.client_id == client.client_id
        assert update.n_samples == client.n_samples
        assert update.weights.shape == w0.shape
        assert not np.array_equal(update.weights, w0)  # training moved weights

    def test_training_reduces_local_loss(self, tiny_clients, tiny_model_factory):
        client = tiny_clients[0]
        model = tiny_model_factory(np.random.default_rng(0))
        w0 = model.get_flat_weights()
        update = client.local_train(model, w0, epochs=3, lr=0.05, batch_size=16, rng=_rng())
        assert update.loss_after < update.loss_before

    def test_starts_from_global_weights(self, tiny_clients, tiny_model_factory):
        """loss_before must be the *global* model's loss, independent of any
        previous state in the shared workspace model."""
        client = tiny_clients[0]
        model = tiny_model_factory(np.random.default_rng(0))
        w0 = model.get_flat_weights()
        first = client.local_train(model, w0, epochs=1, lr=0.05, batch_size=16, rng=_rng())
        # Workspace model is now dirty; retraining from w0 must reproduce
        # the same loss_before.
        second = client.local_train(model, w0, epochs=1, lr=0.05, batch_size=16, rng=_rng())
        assert first.loss_before == pytest.approx(second.loss_before)

    def test_prox_keeps_weights_closer(self, tiny_clients, tiny_model_factory):
        client = tiny_clients[0]
        model = tiny_model_factory(np.random.default_rng(0))
        w0 = model.get_flat_weights()
        plain = client.local_train(model, w0, epochs=3, lr=0.05, batch_size=16, rng=_rng())
        prox = client.local_train(
            model, w0, epochs=3, lr=0.05, batch_size=16, prox_mu=5.0,
            rng=np.random.default_rng(0),
        )
        drift_plain = np.linalg.norm(plain.weights - w0)
        drift_prox = np.linalg.norm(prox.weights - w0)
        assert drift_prox < drift_plain

    def test_epochs_validation(self, tiny_clients, tiny_model_factory):
        model = tiny_model_factory(np.random.default_rng(0))
        with pytest.raises(ValueError):
            tiny_clients[0].local_train(
                model, model.get_flat_weights(), epochs=0, lr=0.05, batch_size=8, rng=_rng()
            )

    def test_deterministic_given_rng_state(self, tiny_data, tiny_model_factory):
        train, _ = tiny_data
        idx = np.arange(40)
        results = []
        for _ in range(2):
            client = Client(0, train.subset(idx))
            model = tiny_model_factory(np.random.default_rng(0))
            w0 = model.get_flat_weights()
            results.append(client.local_train(
                model, w0, 1, 0.05, 16, rng=np.random.default_rng(9)).weights)
        np.testing.assert_array_equal(results[0], results[1])


class TestMakeClients:
    def test_one_client_per_part(self, tiny_data):
        train, _ = tiny_data
        parts = [np.arange(10), np.arange(10, 30), np.arange(30, 35)]
        clients = make_clients(train, parts).ensure(range(3))
        assert [c.n_samples for c in clients] == [10, 20, 5]
        assert [c.client_id for c in clients] == [0, 1, 2]

    def test_clients_hold_no_generator(self, tiny_data):
        """Every draw a client makes comes from the (round, client) cell
        the runtime passes in; a client owns no stream of its own."""
        train, _ = tiny_data
        clients = make_clients(train, [np.arange(20), np.arange(20, 40)])
        assert not any(hasattr(c, "rng") for c in clients.ensure([0, 1]))
