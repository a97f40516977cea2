"""Unit and property tests for the RNS polynomial context."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.he import modmath, oracle
from repro.he.polyring import PolyContext

N = 64
PRIMES = modmath.ntt_primes(28, N, 2)


@pytest.fixture(scope="module")
def ring():
    return PolyContext(N, PRIMES)


@pytest.fixture(scope="module")
def lift():
    """The oracle's Python-int bridge over the same primes."""
    return oracle.Ring(N, PRIMES)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(7)


class TestConstruction:
    def test_q_is_product(self, ring):
        assert ring.q == PRIMES[0] * PRIMES[1]

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ParameterError):
            PolyContext(N, [PRIMES[0], PRIMES[0]])

    def test_zeros_shape(self, ring):
        assert ring.zeros(3, 4).shape == (3, 4, 2, N)

    def test_from_int_coeffs_rejects_bad_degree(self, ring):
        with pytest.raises(ParameterError):
            ring.from_int_coeffs(np.zeros(N + 1, dtype=np.int64))


class TestBigintBridge:
    def test_roundtrip(self, lift, rng):
        values = np.array([int(v) for v in rng.integers(0, 1 << 50, size=N)], dtype=object)
        values %= lift.q
        back = lift.to_bigint(lift.from_bigint(values))
        assert np.array_equal(back, values)

    def test_centered_range(self, ring, lift, rng):
        a = ring.sample_uniform(rng)
        centered = lift.to_bigint_centered(a)
        assert all(-ring.q // 2 <= int(c) <= ring.q // 2 for c in centered)

    def test_from_scalar(self, ring, lift):
        lifted = lift.to_bigint(ring.from_scalar(12345))
        assert lifted[0] == 12345
        assert not lifted[1:].any()

    def test_negative_scalar(self, ring, lift):
        lifted = lift.to_bigint_centered(ring.from_scalar(-5))
        assert lifted[0] == -5


class TestRingOps:
    def test_add_sub_inverse(self, ring, rng):
        a = ring.sample_uniform(rng)
        b = ring.sample_uniform(rng)
        assert np.array_equal(ring.sub(ring.add(a, b), b), a)

    def test_neg(self, ring, rng):
        a = ring.sample_uniform(rng)
        zero = ring.add(a, ring.neg(a))
        assert not zero.any()

    def test_mul_scalar_matches_bigint(self, ring, lift, rng):
        a = ring.sample_uniform(rng)
        scaled = lift.to_bigint(ring.mul_scalar(a, 12345))
        expected = (lift.to_bigint(a) * 12345) % ring.q
        assert np.array_equal(scaled, expected)

    def test_mul_commutative(self, ring, rng):
        a = ring.sample_uniform(rng)
        b = ring.sample_uniform(rng)
        assert np.array_equal(ring.mul(a, b), ring.mul(b, a))

    def test_mul_identity(self, ring, rng):
        a = ring.sample_uniform(rng)
        one = ring.from_scalar(1)
        assert np.array_equal(ring.mul(a, one), a)

    def test_mul_matches_exact_convolution(self, ring, lift, rng):
        a = ring.sample_uniform(rng)
        b = ring.sample_uniform(rng)
        got = lift.to_bigint(ring.mul(a, b))
        exact = lift.convolve_exact(
            lift.to_bigint_centered(a), lift.to_bigint_centered(b)
        )
        assert np.array_equal(got, exact % ring.q)

    def test_ntt_roundtrip_batched(self, ring, rng):
        a = ring.sample_uniform(rng, 3, 2)
        assert np.array_equal(ring.intt(ring.ntt(a)), a)

    def test_ntt_is_ring_homomorphism(self, ring, rng):
        a = ring.sample_uniform(rng)
        b = ring.sample_uniform(rng)
        via_ntt = ring.intt(ring.pointwise_mul(ring.ntt(a), ring.ntt(b)))
        assert np.array_equal(via_ntt, ring.mul(a, b))

    def test_reduce_sum_matches_add_fold(self, ring, rng):
        batch = ring.sample_uniform(rng, 5, 3)
        folded = batch[0]
        for i in range(1, 5):
            folded = ring.add(folded, batch[i])
        assert np.array_equal(ring.reduce_sum(batch, axis=0), folded)

    def test_reduce_sum_inner_axis(self, ring, rng):
        batch = ring.sample_uniform(rng, 2, 4)
        out = ring.reduce_sum(batch, axis=1)
        assert out.shape == (2, ring.k, ring.n)
        assert np.array_equal(out[0], ring.reduce_sum(batch[0], axis=0))

    def test_reduce_sum_rejects_residue_axes(self, ring, rng):
        batch = ring.sample_uniform(rng, 3)
        for axis in (-1, -2, 1, 2):
            with pytest.raises(ParameterError):
                ring.reduce_sum(batch, axis=axis)


class TestSampling:
    def test_ternary_values(self, ring, lift, rng):
        raw = lift.to_bigint_centered(ring.sample_ternary(rng, 10))
        assert set(int(v) for v in raw.ravel()) <= {-1, 0, 1}

    def test_noise_is_bounded(self, ring, lift, rng):
        stddev = 3.2
        raw = lift.to_bigint_centered(ring.sample_noise(rng, stddev, 20))
        bound = int(6 * stddev)
        assert all(abs(int(v)) <= bound for v in raw.ravel())

    def test_uniform_in_range(self, ring, rng):
        a = ring.sample_uniform(rng, 5)
        for i, p in enumerate(ring.primes):
            assert (a[..., i, :] >= 0).all() and (a[..., i, :] < p).all()


class TestScaleAndRound:
    @settings(max_examples=30)
    @given(st.integers(min_value=-(10**9), max_value=10**9))
    def test_matches_true_rounding(self, value):
        lift = oracle.Ring(N, PRIMES)
        coeffs = np.zeros(N, dtype=object)
        coeffs[0] = value
        out = lift.to_bigint_centered(lift.scale_and_round(coeffs, 7, 13))
        # Nearest integer to value*7/13; ties are impossible for odd 13.
        scaled = value * 7
        expected = (2 * abs(scaled) + 13) // 26
        if scaled < 0:
            expected = -expected
        assert int(out[0]) == expected
