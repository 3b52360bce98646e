"""Tests for the SingleSet (centralised training) baseline."""

import pytest

from repro.fl.singleset import train_singleset


class TestSingleSet:
    def test_records_per_epoch(self, tiny_data, tiny_model_factory):
        train, test = tiny_data
        result = train_singleset(train, test, tiny_model_factory, epochs=3, lr=0.05,
                                 batch_size=16)
        assert len(result.accuracies) == 3
        assert len(result.losses) == 3

    def test_learns_above_chance(self, tiny_data, tiny_model_factory):
        train, test = tiny_data
        result = train_singleset(train, test, tiny_model_factory, epochs=10, lr=0.05,
                                 batch_size=16)
        assert result.best_accuracy > 0.5  # chance 0.25

    def test_zero_epochs_raises(self, tiny_data, tiny_model_factory):
        train, test = tiny_data
        with pytest.raises(ValueError):
            train_singleset(train, test, tiny_model_factory, epochs=0)

    def test_best_accuracy_empty_raises(self):
        from repro.fl.singleset import SingleSetResult

        with pytest.raises(ValueError):
            SingleSetResult().best_accuracy
