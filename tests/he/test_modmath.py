"""Unit and property tests for repro.he.modmath."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he import modmath


class TestIsPrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 65537, 786433):
            assert modmath.is_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 9, 15, 91, 65536, 561, 41041):  # incl. Carmichael
            assert not modmath.is_prime(c)

    def test_negative(self):
        assert not modmath.is_prime(-7)

    def test_large_prime_and_neighbour(self):
        p = (1 << 31) - 1  # Mersenne prime
        assert modmath.is_prime(p)
        assert not modmath.is_prime(p - 1)

    @given(st.integers(min_value=2, max_value=10_000))
    def test_matches_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert modmath.is_prime(n) == by_trial


class TestNttPrimes:
    def test_shape_and_congruence(self):
        primes = modmath.ntt_primes(30, 1024, 3)
        assert len(primes) == 3
        assert len(set(primes)) == 3
        for p in primes:
            assert modmath.is_prime(p)
            assert p < 1 << 30
            assert (p - 1) % 2048 == 0

    def test_rejects_non_power_of_two_degree(self):
        with pytest.raises(ParameterError):
            modmath.ntt_primes(30, 1000, 1)

    def test_rejects_impossible_request(self):
        with pytest.raises(ParameterError):
            modmath.ntt_primes(12, 1024, 5)  # primes below 2^12 with p≡1 mod 2048


class TestRoots:
    def test_primitive_root_generates_group(self):
        p = 257
        g = modmath.primitive_root(p)
        assert len({pow(g, k, p) for k in range(p - 1)}) == p - 1

    def test_primitive_root_rejects_composite(self):
        with pytest.raises(ParameterError):
            modmath.primitive_root(100)

    def test_root_of_unity_has_exact_order(self):
        p = modmath.ntt_primes(28, 256, 1)[0]
        w = modmath.root_of_unity(512, p)
        assert pow(w, 512, p) == 1
        assert pow(w, 256, p) != 1

    def test_root_of_unity_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            modmath.root_of_unity(7, 257)  # 7 does not divide 256


class TestInvertMod:
    @given(st.integers(min_value=1, max_value=10**6))
    def test_inverse_property(self, a):
        p = 1_000_003
        if a % p == 0:
            return
        inv = modmath.invert_mod(a, p)
        assert a * inv % p == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ParameterError):
            modmath.invert_mod(6, 12)


class TestCentered:
    def test_boundaries(self):
        assert modmath.centered(0, 10) == 0
        assert modmath.centered(5, 10) == 5
        assert modmath.centered(6, 10) == -4
        assert modmath.centered(9, 10) == -1

    @given(st.integers(), st.integers(min_value=2, max_value=10**9))
    def test_range_and_congruence(self, v, m):
        c = modmath.centered(v, m)
        assert -m // 2 <= c <= m // 2
        assert (c - v) % m == 0


def test_product():
    assert modmath.product([]) == 1
    assert modmath.product([3, 5, 7]) == 105
