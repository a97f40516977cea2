"""Unit and property tests for the negacyclic NTT engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he import modmath
from repro.he.ntt import NttPlan, bit_reverse_indices
from repro.he.oracle import negacyclic_convolve_exact

N = 64
PRIME = modmath.ntt_primes(28, N, 1)[0]


@pytest.fixture(scope="module")
def plan():
    return NttPlan(N, PRIME)


def naive_negacyclic(a, b, n, p):
    """Schoolbook negacyclic convolution used as the reference."""
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = i + j
            term = int(ai) * int(bj)
            if k < n:
                out[k] = (out[k] + term) % p
            else:
                out[k - n] = (out[k - n] - term) % p
    return np.array(out, dtype=np.int64)


class TestBitReverse:
    def test_length_8(self):
        assert bit_reverse_indices(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_is_involution(self):
        rev = bit_reverse_indices(256)
        assert np.array_equal(rev[rev], np.arange(256))


class TestPlanValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ParameterError):
            NttPlan(48, PRIME)

    def test_rejects_wide_prime(self):
        with pytest.raises(ParameterError):
            NttPlan(N, (1 << 31) + 11)

    def test_rejects_unfriendly_prime(self):
        with pytest.raises(ParameterError):
            NttPlan(N, 1_000_003)

    def test_rejects_wrong_length_input(self, plan):
        with pytest.raises(ParameterError):
            plan.forward(np.zeros(N // 2, dtype=np.int64))


class TestRoundTrip:
    def test_inverse_of_forward(self, plan):
        rng = np.random.default_rng(1)
        a = rng.integers(0, PRIME, size=N)
        assert np.array_equal(plan.inverse(plan.forward(a)), a)

    def test_batched_roundtrip(self, plan):
        rng = np.random.default_rng(2)
        a = rng.integers(0, PRIME, size=(3, 5, N))
        assert np.array_equal(plan.inverse(plan.forward(a)), a)

    def test_does_not_mutate_input(self, plan):
        a = np.arange(N, dtype=np.int64)
        original = a.copy()
        plan.forward(a)
        assert np.array_equal(a, original)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=PRIME - 1), min_size=N, max_size=N))
    def test_roundtrip_property(self, coeffs):
        plan = NttPlan(N, PRIME)
        a = np.array(coeffs, dtype=np.int64)
        assert np.array_equal(plan.inverse(plan.forward(a)), a)


class TestMultiply:
    def test_x_times_x(self, plan):
        x = np.zeros(N, dtype=np.int64)
        x[1] = 1
        result = plan.multiply(x, x)
        expected = np.zeros(N, dtype=np.int64)
        expected[2] = 1
        assert np.array_equal(result, expected)

    def test_negacyclic_wraparound_sign(self, plan):
        """x^(n-1) * x = x^n = -1 in the ring."""
        a = np.zeros(N, dtype=np.int64)
        a[N - 1] = 1
        x = np.zeros(N, dtype=np.int64)
        x[1] = 1
        result = plan.multiply(a, x)
        expected = np.zeros(N, dtype=np.int64)
        expected[0] = PRIME - 1
        assert np.array_equal(result, expected)

    def test_matches_schoolbook(self, plan):
        rng = np.random.default_rng(3)
        a = rng.integers(0, PRIME, size=N)
        b = rng.integers(0, PRIME, size=N)
        assert np.array_equal(plan.multiply(a, b), naive_negacyclic(a, b, N, PRIME))

    def test_linearity(self, plan):
        rng = np.random.default_rng(4)
        a, b, c = (rng.integers(0, PRIME, size=N) for _ in range(3))
        lhs = plan.multiply((a + b) % PRIME, c)
        rhs = (plan.multiply(a, c) + plan.multiply(b, c)) % PRIME
        assert np.array_equal(lhs, rhs)


class TestExactConvolve:
    def test_matches_schoolbook_bigint(self):
        rng = np.random.default_rng(5)
        bound = 1 << 40
        a = np.array([int(v) for v in rng.integers(-bound + 1, bound, size=N)], dtype=object)
        b = np.array([int(v) for v in rng.integers(-bound + 1, bound, size=N)], dtype=object)
        result = negacyclic_convolve_exact(a, b, N, bound)
        expected = np.zeros(N, dtype=object)
        for i in range(N):
            for j in range(N):
                term = int(a[i]) * int(b[j])
                if i + j < N:
                    expected[i + j] += term
                else:
                    expected[i + j - N] -= term
        assert np.array_equal(result, expected)

    def test_batched(self):
        rng = np.random.default_rng(6)
        bound = 1 << 20
        a = rng.integers(-bound + 1, bound, size=(2, N)).astype(object)
        b = rng.integers(-bound + 1, bound, size=(2, N)).astype(object)
        result = negacyclic_convolve_exact(a, b, N, bound)
        for lane in range(2):
            single = negacyclic_convolve_exact(a[lane], b[lane], N, bound)
            assert np.array_equal(result[lane], single)
