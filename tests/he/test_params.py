"""Tests for encryption parameter validation and presets."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.he import modmath
from repro.he.params import (
    EncryptionParams,
    default_parameter_options,
    paper_parameters,
    small_parameter_options,
)

GOOD_PRIMES = tuple(modmath.ntt_primes(28, 256, 2))


def make(**overrides):
    base = dict(
        poly_degree=256,
        coeff_primes=GOOD_PRIMES,
        plain_modulus=65537,
    )
    base.update(overrides)
    return EncryptionParams(**base)


class TestValidation:
    def test_valid_construction(self):
        params = make()
        assert params.coeff_modulus == GOOD_PRIMES[0] * GOOD_PRIMES[1]

    def test_rejects_non_power_of_two_degree(self):
        with pytest.raises(ParameterError):
            make(poly_degree=300)

    def test_rejects_tiny_degree(self):
        with pytest.raises(ParameterError):
            make(poly_degree=4)

    def test_rejects_composite_prime(self):
        with pytest.raises(ParameterError):
            make(coeff_primes=(GOOD_PRIMES[0], GOOD_PRIMES[1] + 2))

    def test_rejects_unfriendly_prime(self):
        with pytest.raises(ParameterError):
            make(coeff_primes=(1_000_003,))

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ParameterError):
            make(coeff_primes=(GOOD_PRIMES[0], GOOD_PRIMES[0]))

    def test_rejects_empty_primes(self):
        with pytest.raises(ParameterError):
            make(coeff_primes=())

    def test_rejects_tiny_plain_modulus(self):
        with pytest.raises(ParameterError):
            make(plain_modulus=1)

    def test_rejects_plain_ge_coeff(self):
        with pytest.raises(ParameterError):
            make(plain_modulus=GOOD_PRIMES[0] * GOOD_PRIMES[1])

    def test_rejects_plain_sharing_a_factor_with_coeff(self):
        """Decrypt rounds through ``q^-1`` modulo ``t``: a ``t`` that one of
        q's primes divides has none."""
        for t in (GOOD_PRIMES[0], 3 * GOOD_PRIMES[1]):
            with pytest.raises(ParameterError, match="shares a factor"):
                make(plain_modulus=t)
        make(plain_modulus=GOOD_PRIMES[0] - 1)

    def test_rejects_bad_stddev(self):
        with pytest.raises(ParameterError):
            make(noise_stddev=0.0)

    def test_rejects_bad_decomposition(self):
        with pytest.raises(ParameterError):
            make(decomposition_bits=40)


class TestDerivedQuantities:
    def test_delta(self):
        params = make(plain_modulus=16)
        assert params.delta == params.coeff_modulus // 16

    def test_decomposition_count_covers_q(self):
        params = make(decomposition_bits=16)
        w = params.decomposition_base
        assert w ** params.decomposition_count > params.coeff_modulus

    def test_describe_mentions_name(self):
        assert "custom" in make().describe()


class TestPresets:
    def test_paper_preset_matches_section_v(self):
        params = paper_parameters()
        assert params.poly_degree == 1024
        assert params.plain_modulus == 4  # the paper's quoted t
        # SEAL 2.1's ~48-bit default coefficient modulus for n=1024.
        assert 44 <= params.coeff_modulus.bit_length() <= 50

    def test_default_options_keyed_by_degree(self):
        options = default_parameter_options()
        for degree, preset in options.items():
            assert preset.poly_degree == degree

    def test_small_presets_are_fast_but_valid(self):
        for preset in small_parameter_options().values():
            assert preset.poly_degree <= 512

    def test_security_estimate_monotone(self):
        options = default_parameter_options()
        # n=1024 with a 48-bit q is far past the 128-bit table entry (27 bits).
        assert options[1024].estimated_security_bits() < 128
        # n=4096 with ~120-bit q is within its 109-bit budget only if smaller;
        # either way the estimate must be a sane value.
        assert 0 <= options[4096].estimated_security_bits() <= 128
