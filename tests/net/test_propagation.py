"""Tests for repro.net.propagation."""

import random

import pytest

from repro.net.propagation import LossModel


class TestLossModel:
    def test_lossless_by_default(self):
        model = LossModel()
        assert all(model.delivers() for _ in range(100))

    def test_certain_loss(self):
        model = LossModel(1.0, random.Random(1))
        assert not any(model.delivers() for _ in range(100))

    def test_partial_loss_rate(self):
        model = LossModel(0.3, random.Random(2))
        delivered = sum(model.delivers() for _ in range(5000))
        assert 0.65 < delivered / 5000 < 0.75

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            LossModel(1.5)
