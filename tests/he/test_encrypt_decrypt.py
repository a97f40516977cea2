"""Encryption/decryption round-trips, noise budgets, and key handling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyMismatchError, NoiseBudgetExhausted, ParameterError
from repro.he import (
    Ciphertext,
    Context,
    Decryptor,
    Encryptor,
    KeyGenerator,
    Plaintext,
    ScalarEncoder,
    SymmetricEncryptor,
    oracle,
    small_parameter_options,
)
from repro.he.polyring import PolyContext


class TestRoundTrip:
    def test_scalar(self, encoder, encryptor, decryptor):
        ct = encryptor.encrypt(encoder.encode(1234))
        assert encoder.decode(decryptor.decrypt(ct)) == 1234

    def test_negative(self, encoder, encryptor, decryptor):
        ct = encryptor.encrypt(encoder.encode(-999))
        assert encoder.decode(decryptor.decrypt(ct)) == -999

    def test_zero(self, encoder, encryptor, decryptor):
        ct = encryptor.encrypt(encoder.encode(0))
        assert encoder.decode(decryptor.decrypt(ct)) == 0

    def test_batched_matrix(self, encoder, encryptor, decryptor, rng):
        values = rng.integers(-1000, 1000, size=(4, 6))
        ct = encryptor.encrypt(encoder.encode(values))
        assert np.array_equal(encoder.decode(decryptor.decrypt(ct)), values)

    def test_encrypt_zero_helper(self, encryptor, decryptor, encoder):
        ct = encryptor.encrypt_zero(3)
        assert np.array_equal(encoder.decode(decryptor.decrypt(ct)), np.zeros(3))

    def test_full_polynomial_plaintext(self, context, encryptor, decryptor, rng):
        coeffs = rng.integers(0, context.plain_modulus, size=context.poly_degree)
        plain = Plaintext(context, coeffs)
        ct = encryptor.encrypt(plain)
        assert np.array_equal(decryptor.decrypt(ct).coeffs, plain.coeffs)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=-32768, max_value=32768))
    def test_roundtrip_property(self, value):
        params = small_parameter_options()[256]
        context = Context(params)
        rng = np.random.default_rng(abs(value) + 1)
        keys = KeyGenerator(context, rng).generate()
        encoder = ScalarEncoder(context)
        ct = Encryptor(context, keys.public, rng).encrypt(encoder.encode(value))
        assert encoder.decode(Decryptor(context, keys.secret).decrypt(ct)) == value


class TestSymmetric:
    def test_roundtrip(self, sym_encryptor, decryptor, encoder):
        ct = sym_encryptor.encrypt(encoder.encode(77))
        assert encoder.decode(decryptor.decrypt(ct)) == 77

    def test_less_noise_than_public(self, encryptor, sym_encryptor, decryptor, encoder):
        plain = encoder.encode(42)
        pk_budget = decryptor.invariant_noise_budget(encryptor.encrypt(plain))
        sk_budget = decryptor.invariant_noise_budget(sym_encryptor.encrypt(plain))
        assert sk_budget >= pk_budget

    def test_randomized(self, sym_encryptor, encoder):
        a = sym_encryptor.encrypt(encoder.encode(1))
        b = sym_encryptor.encrypt(encoder.encode(1))
        assert not np.array_equal(a.data, b.data)


def _public_formula(context, keys, rng, plain):
    """``Encryptor.encrypt`` written out with the full ``Delta * m`` array."""
    ring, params, batch = context.ring, context.params, plain.batch_shape
    u = ring.ntt(ring.sample_ternary(rng, *batch))
    e1 = ring.sample_noise(rng, params.noise_stddev, *batch)
    e2 = ring.sample_noise(rng, params.noise_stddev, *batch)
    delta_m = ring.mul_scalar(ring.from_int_coeffs(plain.coeffs), params.delta)
    c0 = ring.add(ring.pointwise_mul(keys.public.p0_ntt, u), ring.ntt(ring.add(e1, delta_m)))
    c1 = ring.add(ring.pointwise_mul(keys.public.p1_ntt, u), ring.ntt(e2))
    return np.stack([c0, c1], axis=-3)


def _symmetric_formula(context, keys, rng, plain, a_domain="ntt"):
    """``SymmetricEncryptor.encrypt`` written out: ``a`` is drawn as NTT
    residues (``a_domain="coeff"``: drawn as coefficients and transformed,
    the form before the draw moved into the NTT domain)."""
    ring, params, batch = context.ring, context.params, plain.batch_shape
    a = ring.sample_uniform(rng, *batch)
    if a_domain == "coeff":
        a = ring.ntt(a)
    e = ring.sample_noise(rng, params.noise_stddev, *batch)
    delta_m = ring.mul_scalar(ring.from_int_coeffs(plain.coeffs), params.delta)
    body = ring.sub(ring.ntt(ring.add(delta_m, e)), ring.pointwise_mul(a, keys.secret.s_ntt))
    return np.stack([body, a], axis=-3)


SCHEMES = {
    "public": (lambda ctx, keys, rng: Encryptor(ctx, keys.public, rng), _public_formula),
    "symmetric": (
        lambda ctx, keys, rng: SymmetricEncryptor(ctx, keys.secret, rng),
        _symmetric_formula,
    ),
}


class TestConstantCoefficientPath:
    """``encrypt`` adds ``Delta * m`` to the constant column alone when the
    plaintext is a constant polynomial, and as the full array otherwise --
    the same bytes and the same RNG draws as the written-out formula."""

    @pytest.fixture()
    def full_products(self, monkeypatch):
        """Batch shapes ``from_int_coeffs`` lifted to ``(..., k_rns, n)``."""
        calls = []
        original = PolyContext.from_int_coeffs

        def spy(self, coeffs):
            calls.append(np.shape(coeffs)[:-1])
            return original(self, coeffs)

        monkeypatch.setattr(PolyContext, "from_int_coeffs", spy)
        return calls

    @pytest.mark.parametrize(
        "context_type", [Context, oracle.Context], ids=["fused", "reference"]
    )
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_matches_the_full_array_formula(
        self, context, keypair, encoder, full_products, scheme, context_type
    ):
        build, formula = SCHEMES[scheme]
        values = np.random.default_rng(3).integers(-500, 500, size=(3, 4))
        scalar = encoder.encode(values)
        assert not scalar.coeffs[..., 1:].any()
        general = Plaintext(context, scalar.coeffs.copy())
        general.coeffs[1, 2, 5] = 7
        each = context_type(context.params)
        for plain, lifted in ((scalar, []), (general, [(3, 4)])):
            expected_rng = np.random.default_rng(99)
            expected = formula(each, keypair, expected_rng, plain)
            del full_products[:]
            rng = np.random.default_rng(99)
            ct = build(each, keypair, rng).encrypt(plain)
            assert full_products == lifted
            assert ct.is_ntt and ct.data.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_unbatched_plaintext(self, context, keypair, encoder, decryptor, full_products):
        ct = Encryptor(context, keypair.public, np.random.default_rng(5)).encrypt(
            encoder.encode(-321)
        )
        assert full_products == [] and ct.batch_shape == ()
        assert encoder.decode(decryptor.decrypt(ct)) == -321

    def test_encrypt_scalar_is_encrypt(self):
        assert vars(Encryptor)["encrypt_scalar"] is vars(Encryptor)["encrypt"]


class TestSymmetricDrawsAInTheNttDomain:
    """Drawing ``a`` as NTT residues changes the ciphertext bytes and
    nothing a decryption can see: for one seed, the plaintext, the noise
    ``c0 + c1 s = NTT(e + Delta m)`` and the RNG position equal the
    coefficient-domain draw's, and ``c1`` is canonical."""

    @pytest.mark.parametrize(
        "context_type", [Context, oracle.Context], ids=["fused", "reference"]
    )
    def test_same_plaintext_noise_and_rng_as_a_transformed_draw(
        self, context, keypair, encoder, decryptor, context_type
    ):
        ring = context.ring
        plain = encoder.encode(np.random.default_rng(4).integers(-900, 900, size=(2, 5)))
        each = context_type(context.params)
        parent_rng = np.random.default_rng(77)
        parent = _symmetric_formula(each, keypair, parent_rng, plain, "coeff")
        rng = np.random.default_rng(77)
        ct = SymmetricEncryptor(each, keypair.secret, rng).encrypt(plain)
        assert rng.bit_generator.state == parent_rng.bit_generator.state
        assert ct.data.tobytes() != parent.tobytes()
        s = keypair.secret.s_ntt
        for data in (ct.data, parent):
            assert ((0 <= data[..., 1, :, :]) & (data[..., 1, :, :] < ring.primes[:, None])).all()
        phase = ring.add(ct.data[..., 0, :, :], ring.pointwise_mul(ct.data[..., 1, :, :], s))
        parent_phase = ring.add(parent[..., 0, :, :], ring.pointwise_mul(parent[..., 1, :, :], s))
        assert phase.tobytes() == parent_phase.tobytes()
        parent_ct = Ciphertext(context, parent, is_ntt=True)
        assert decryptor.decrypt(ct).coeffs.tobytes() == decryptor.decrypt(parent_ct).coeffs.tobytes()
        assert decryptor.invariant_noise_budget(ct) == decryptor.invariant_noise_budget(parent_ct)


class TestNoiseBudget:
    def test_fresh_budget_positive(self, encryptor, decryptor, encoder):
        ct = encryptor.encrypt(encoder.encode(5))
        assert decryptor.invariant_noise_budget(ct) > 10

    def test_budget_of_garbage_is_zero(self, context, decryptor, encryptor, encoder, rng):
        ct = encryptor.encrypt(encoder.encode(5))
        # Stomp the ciphertext body with uniform junk: noise budget collapses.
        ct.data[..., 0, :, :] = context.ring.sample_uniform(rng)
        # A uniform body leaves at most a sliver of budget (max residue is
        # within a hair of q/2 almost surely).
        assert decryptor.invariant_noise_budget(ct) < 1.0

    def test_check_noise_raises_on_garbage(self, context, decryptor, encryptor, encoder):
        ct = encryptor.encrypt(encoder.encode(5))
        # Stomp the body with uniform junk: residues become uniform, so the
        # measured budget collapses below the statistical threshold.
        rng = np.random.default_rng(99)
        ct.data[..., 0, :, :] = context.ring.sample_uniform(rng)
        with pytest.raises(NoiseBudgetExhausted):
            decryptor.decrypt(ct, check_noise=True)

    def test_decrypt_without_check_succeeds_on_fresh(self, encryptor, decryptor, encoder):
        ct = encryptor.encrypt(encoder.encode(5))
        decryptor.decrypt(ct, check_noise=True)  # must not raise


class TestRandomization:
    def test_same_plaintext_different_ciphertexts(self, encryptor, encoder):
        a = encryptor.encrypt(encoder.encode(1))
        b = encryptor.encrypt(encoder.encode(1))
        assert not np.array_equal(a.data, b.data)

    def test_batch_elements_independently_randomized(self, encryptor, encoder):
        ct = encryptor.encrypt(encoder.encode(np.array([1, 1])))
        assert not np.array_equal(ct.data[0], ct.data[1])


class TestKeyAndContextSafety:
    def test_wrong_secret_key_garbles(self, context, encryptor, encoder, rng):
        other = KeyGenerator(context, rng).generate()
        wrong = Decryptor(context, other.secret)
        ct = encryptor.encrypt(encoder.encode(1234))
        assert wrong.invariant_noise_budget(ct) < 1.0

    def test_cross_context_rejected(self, encryptor, encoder):
        other_params = small_parameter_options()[512]
        other = Context(other_params)
        keys = KeyGenerator(other, np.random.default_rng(0)).generate()
        with pytest.raises(KeyMismatchError):
            Decryptor(other, keys.secret).decrypt(
                encryptor.encrypt(encoder.encode(1))
            )

    def test_ciphertext_shape_validation(self, context):
        from repro.he import Ciphertext

        with pytest.raises(ParameterError):
            Ciphertext(context, np.zeros((2, 3, 7), dtype=np.int64))


class TestDomainsAndViews:
    def test_ntt_coeff_roundtrip(self, encryptor, decryptor, encoder):
        ct = encryptor.encrypt(encoder.encode(31))
        back = ct.to_coeff().to_ntt()
        assert encoder.decode(decryptor.decrypt(back)) == 31

    def test_reshape_and_index(self, encryptor, decryptor, encoder, rng):
        values = rng.integers(-50, 50, size=12)
        ct = encryptor.encrypt(encoder.encode(values)).reshape(3, 4)
        assert ct.batch_shape == (3, 4)
        row = ct[1]
        assert np.array_equal(
            encoder.decode(decryptor.decrypt(row)), values.reshape(3, 4)[1]
        )

    def test_copy_is_deep(self, encryptor, encoder):
        ct = encryptor.encrypt(encoder.encode(9))
        dup = ct.copy()
        dup.data[...] = 0
        assert ct.data.any()

    def test_byte_size_positive(self, encryptor, encoder):
        ct = encryptor.encrypt(encoder.encode(9))
        assert ct.byte_size() == ct.data.nbytes > 0
