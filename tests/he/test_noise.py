"""Noise-estimator sanity: predictions must bound the measured budgets."""

from __future__ import annotations

import pytest

from repro.he import NoiseEstimator


@pytest.fixture(scope="module")
def estimator(params):
    return NoiseEstimator(params)


class TestFreshBudget:
    def test_positive(self, estimator):
        assert estimator.fresh_budget() > 0

    def test_is_lower_bound_on_measured(self, estimator, encryptor, encoder, decryptor):
        ct = encryptor.encrypt(encoder.encode(1))
        measured = decryptor.invariant_noise_budget(ct)
        assert estimator.fresh_budget() <= measured


class TestOperationCosts:
    def test_multiply_cost_dominates_plain(self, estimator):
        assert estimator.multiply_cost() > estimator.plain_multiply_cost(100.0)

    def test_add_cost_logarithmic(self, estimator):
        assert estimator.add_cost(1) == 0
        assert estimator.add_cost(1024) == pytest.approx(10.0)

    def test_relinearize_cost_nonnegative(self, estimator):
        assert estimator.relinearize_cost() >= 0

    def test_multiply_estimate_bounds_measurement(
        self, estimator, encryptor, encoder, decryptor, evaluator
    ):
        ct = encryptor.encrypt(encoder.encode(100))
        fresh = decryptor.invariant_noise_budget(ct)
        squared = evaluator.square(ct)
        measured_cost = fresh - decryptor.invariant_noise_budget(squared)
        assert measured_cost <= estimator.multiply_cost() + 2.0


class TestCircuitPlanning:
    def test_budget_after_monotone_in_depth(self, estimator):
        assert estimator.budget_after(multiplies=1) > estimator.budget_after(multiplies=2)

    def test_supports_shallow_circuit(self, estimator):
        assert estimator.budget_after(plain_multiplies=1, plain_norm=16.0, additions=25) >= 5.0

    def test_rejects_absurd_depth(self, estimator):
        assert estimator.budget_after(multiplies=50) < 5.0
