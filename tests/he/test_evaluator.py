"""Homomorphic-operation tests: the paper's Add / Multiply / relinearization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyMismatchError, ParameterError
from repro.he import (
    Context,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    OperationCounter,
    ScalarEncoder,
    oracle,
    small_parameter_options,
)
from repro.he.context import Ciphertext
from repro.he.keys import RelinKeys

PROFILES = pytest.mark.parametrize(
    "context_type", [Context, oracle.Context], ids=["fused", "reference"]
)


def _on(context, *cts):
    """The ciphertexts, carried into ``context`` unchanged."""
    return [Ciphertext(context, ct.data, ct.is_ntt) for ct in cts]

small_ints = st.integers(min_value=-100, max_value=100)


class TestAdditive:
    def test_add(self, encryptor, decryptor, encoder, evaluator):
        ct = evaluator.add(
            encryptor.encrypt(encoder.encode(30)),
            encryptor.encrypt(encoder.encode(12)),
        )
        assert encoder.decode(decryptor.decrypt(ct)) == 42

    def test_sub(self, encryptor, decryptor, encoder, evaluator):
        ct = evaluator.sub(
            encryptor.encrypt(encoder.encode(30)),
            encryptor.encrypt(encoder.encode(12)),
        )
        assert encoder.decode(decryptor.decrypt(ct)) == 18

    def test_negate(self, encryptor, decryptor, encoder, evaluator):
        ct = evaluator.negate(encryptor.encrypt(encoder.encode(7)))
        assert encoder.decode(decryptor.decrypt(ct)) == -7

    def test_add_plain(self, encryptor, decryptor, encoder, evaluator):
        ct = evaluator.add_plain(encryptor.encrypt(encoder.encode(40)), encoder.encode(2))
        assert encoder.decode(decryptor.decrypt(ct)) == 42

    def test_add_many(self, encryptor, decryptor, encoder, evaluator):
        cts = [encryptor.encrypt(encoder.encode(i)) for i in range(5)]
        assert encoder.decode(decryptor.decrypt(evaluator.add_many(cts))) == 10

    def test_add_many_empty_rejected(self, evaluator):
        with pytest.raises(ParameterError):
            evaluator.add_many([])

    def test_sum_batch(self, encryptor, decryptor, encoder, evaluator, rng):
        values = rng.integers(-20, 20, size=(4, 5))
        ct = encryptor.encrypt(encoder.encode(values))
        summed = evaluator.sum_batch(ct, axis=1)
        assert np.array_equal(encoder.decode(decryptor.decrypt(summed)), values.sum(axis=1))

    def test_sum_batch_axis0(self, encryptor, decryptor, encoder, evaluator, rng):
        values = rng.integers(-20, 20, size=(4, 5))
        ct = encryptor.encrypt(encoder.encode(values))
        summed = evaluator.sum_batch(ct, axis=0)
        assert np.array_equal(encoder.decode(decryptor.decrypt(summed)), values.sum(axis=0))

    def test_sum_batch_rejects_scalar(self, encryptor, encoder, evaluator):
        with pytest.raises(ParameterError):
            evaluator.sum_batch(encryptor.encrypt(encoder.encode(1)))

    @settings(max_examples=15, deadline=None)
    @given(small_ints, small_ints)
    def test_add_homomorphism_property(self, a, b):
        context = Context(small_parameter_options()[256])
        rng = np.random.default_rng(abs(a) * 1000 + abs(b))
        keys = KeyGenerator(context, rng).generate()
        encoder = ScalarEncoder(context)
        encryptor = Encryptor(context, keys.public, rng)
        decryptor = Decryptor(context, keys.secret)
        ct = Evaluator(context).add(
            encryptor.encrypt(encoder.encode(a)), encryptor.encrypt(encoder.encode(b))
        )
        assert encoder.decode(decryptor.decrypt(ct)) == a + b


class TestMultiplicative:
    def test_multiply_plain(self, encryptor, decryptor, encoder, evaluator):
        ct = evaluator.multiply_plain(
            encryptor.encrypt(encoder.encode(6)), encoder.encode(7)
        )
        assert encoder.decode(decryptor.decrypt(ct)) == 42

    def test_multiply_plain_negative(self, encryptor, decryptor, encoder, evaluator):
        ct = evaluator.multiply_plain(
            encryptor.encrypt(encoder.encode(-6)), encoder.encode(7)
        )
        assert encoder.decode(decryptor.decrypt(ct)) == -42

    def test_multiply_plain_precomputed_operand(
        self, encryptor, decryptor, encoder, evaluator
    ):
        operand = evaluator.transform_plain(encoder.encode(5))
        ct = evaluator.multiply_plain(encryptor.encrypt(encoder.encode(8)), operand)
        assert encoder.decode(decryptor.decrypt(ct)) == 40

    def test_multiply_plain_batched_weights(
        self, encryptor, decryptor, encoder, evaluator, rng
    ):
        values = rng.integers(-10, 10, size=6)
        weights = rng.integers(-10, 10, size=6)
        ct = evaluator.multiply_plain(
            encryptor.encrypt(encoder.encode(values)),
            evaluator.transform_plain(encoder.encode(weights)),
        )
        assert np.array_equal(
            encoder.decode(decryptor.decrypt(ct)), values * weights
        )

    def test_multiply(self, encryptor, decryptor, encoder, evaluator):
        ct = evaluator.multiply(
            encryptor.encrypt(encoder.encode(21)), encryptor.encrypt(encoder.encode(-2))
        )
        assert ct.size == 3
        assert encoder.decode(decryptor.decrypt(ct)) == -42

    def test_square(self, encryptor, decryptor, encoder, evaluator):
        ct = evaluator.square(encryptor.encrypt(encoder.encode(-13)))
        assert encoder.decode(decryptor.decrypt(ct)) == 169

    def test_square_transforms_its_operand_once(
        self, context, encryptor, encoder, evaluator, rng, monkeypatch
    ):
        """One inverse transform and one lift of the operand per ``square``
        (the product passes through ``intt`` too: three polynomials, not two)."""
        ct = encryptor.encrypt(encoder.encode(rng.integers(-50, 50, size=(2, 3))))
        product = evaluator.multiply(ct, ct)
        operand_shape = (ct.batch_count, *ct.data.shape[-3:])
        inverse_transforms, lifts = [], []
        intt, lift = context.ring.intt, context.aux_basis.lift
        monkeypatch.setattr(
            context.ring, "intt", lambda a: inverse_transforms.append(a.shape) or intt(a)
        )
        monkeypatch.setattr(
            context.aux_basis, "lift", lambda a: lifts.append(a.shape) or lift(a)
        )
        squared = evaluator.square(ct)
        assert [shape for shape in inverse_transforms if shape[-3] == 2] == [operand_shape]
        assert lifts == [operand_shape]
        assert not squared.is_ntt and squared.data.tobytes() == product.data.tobytes()
        del inverse_transforms[:]
        reference = oracle.Context(context.params)  # one transform in all
        oracle_intt = reference.ring.intt
        monkeypatch.setattr(
            reference.ring, "intt", lambda a: inverse_transforms.append(a.shape) or oracle_intt(a)
        )
        squared = Evaluator(reference).square(*_on(reference, ct))
        assert squared.data.tobytes() == product.data.tobytes()
        assert inverse_transforms == [operand_shape]  # the batch is one chunk

    @PROFILES
    def test_mismatched_batches_are_a_typed_error(
        self, context, encryptor, encoder, context_type
    ):
        five = encryptor.encrypt(encoder.encode(np.arange(5)))
        three = encryptor.encrypt(encoder.encode(np.arange(3)))
        evaluator = Evaluator(context_type(context.params))
        for op in (evaluator.multiply, evaluator.add):
            with pytest.raises(ParameterError, match=r"\(5,\) and \(3,\)"):
                op(five, three)

    def test_broadcast_batch_multiplies_under_both_profiles(
        self, encryptor, decryptor, encoder, evaluator, relin_keys, rng
    ):
        values = rng.integers(-30, 30, size=5)
        many = encryptor.encrypt(encoder.encode(values))
        one = encryptor.encrypt(encoder.encode(-7))
        outputs = {}
        for mode, each in (
            ("fused", evaluator),
            ("reference", Evaluator(oracle.Context(evaluator.context.params))),
        ):
            relined = each.relinearize(
                each.multiply(*_on(each.context, many, one)), relin_keys
            )
            assert relined.batch_shape == (5,)
            assert np.array_equal(encoder.decode(decryptor.decrypt(relined)), values * -7)
            outputs[mode] = relined.data.tobytes()
        assert outputs["fused"] == outputs["reference"]

    def test_multiply_batched(self, encryptor, decryptor, encoder, evaluator, rng):
        a = rng.integers(-30, 30, size=5)
        b = rng.integers(-30, 30, size=5)
        ct = evaluator.multiply(
            encryptor.encrypt(encoder.encode(a)), encryptor.encrypt(encoder.encode(b))
        )
        assert np.array_equal(encoder.decode(decryptor.decrypt(ct)), a * b)

    def test_multiply_requires_size_two(
        self, encryptor, decryptor, encoder, evaluator
    ):
        ct3 = evaluator.multiply(
            encryptor.encrypt(encoder.encode(2)), encryptor.encrypt(encoder.encode(3))
        )
        with pytest.raises(ParameterError):
            evaluator.multiply(ct3, encryptor.encrypt(encoder.encode(1)))

    def test_add_mixed_sizes(self, encryptor, decryptor, encoder, evaluator):
        ct3 = evaluator.multiply(
            encryptor.encrypt(encoder.encode(6)), encryptor.encrypt(encoder.encode(7))
        )
        mixed = evaluator.add(ct3, encryptor.encrypt(encoder.encode(8)))
        assert encoder.decode(decryptor.decrypt(mixed)) == 50
        mixed_rev = evaluator.add(encryptor.encrypt(encoder.encode(8)), ct3)
        assert encoder.decode(decryptor.decrypt(mixed_rev)) == 50

    @settings(max_examples=10, deadline=None)
    @given(small_ints, small_ints)
    def test_multiply_homomorphism_property(self, a, b):
        context = Context(small_parameter_options()[256])
        rng = np.random.default_rng(abs(a) * 507 + abs(b) + 3)
        keys = KeyGenerator(context, rng).generate()
        encoder = ScalarEncoder(context)
        encryptor = Encryptor(context, keys.public, rng)
        decryptor = Decryptor(context, keys.secret)
        ct = Evaluator(context).multiply(
            encryptor.encrypt(encoder.encode(a)), encryptor.encrypt(encoder.encode(b))
        )
        assert encoder.decode(decryptor.decrypt(ct)) == a * b


class TestRelinearization:
    def test_preserves_value(self, encryptor, decryptor, encoder, evaluator, relin_keys):
        ct = evaluator.square(encryptor.encrypt(encoder.encode(15)))
        relined = evaluator.relinearize(ct, relin_keys)
        assert relined.size == 2
        assert encoder.decode(decryptor.decrypt(relined)) == 225

    def test_enables_further_multiplication(self):
        # Depth 2 needs a smaller plaintext modulus than the shared fixture's
        # 65537 (each multiply costs ~log2(t) + log2(n) bits of budget).
        from repro.he.params import EncryptionParams
        from repro.he import small_parameter_options

        base = small_parameter_options()[256]
        params = EncryptionParams(
            poly_degree=base.poly_degree,
            coeff_primes=base.coeff_primes,
            plain_modulus=257,
        )
        context = Context(params)
        rng = np.random.default_rng(11)
        keygen = KeyGenerator(context, rng)
        keys = keygen.generate()
        relin_keys = keygen.relin_keys(keys.secret)
        encoder = ScalarEncoder(context)
        encryptor = Encryptor(context, keys.public, rng)
        decryptor = Decryptor(context, keys.secret)
        evaluator = Evaluator(context)
        ct = evaluator.square(encryptor.encrypt(encoder.encode(3)))
        relined = evaluator.relinearize(ct, relin_keys)
        ct4 = evaluator.multiply(relined, encryptor.encrypt(encoder.encode(2)))
        assert decryptor.invariant_noise_budget(ct4) > 0
        assert encoder.decode(decryptor.decrypt(ct4)) == 18

    @PROFILES
    def test_truncated_keys_are_rejected(
        self, context, encryptor, encoder, evaluator, relin_keys, context_type
    ):
        """Keys for 2 of the 4 digit positions used to be accepted and the
        result decrypted to garbage."""
        assert relin_keys.count == context.params.decomposition_count == 4
        truncated = RelinKeys(
            context,
            relin_keys.key0_ntt[:2],
            relin_keys.key1_ntt[:2],
            relin_keys.decomposition_bits,
        )
        ct = evaluator.square(encryptor.encrypt(encoder.encode(15)))
        with pytest.raises(KeyMismatchError, match="2 digit positions"):
            Evaluator(context_type(context.params)).relinearize(ct, truncated)

    @pytest.mark.parametrize("k", [2, 5])
    def test_inner_product_matches_the_per_digit_fold(self, k):
        """The digit x key inner product is one multiply-accumulate; per
        digit ``pointwise_mul`` + ``add`` on Python-int digits is the oracle.
        k = 5 (ten digits, 30-bit primes) crosses a reduction boundary."""
        from repro.he import modmath
        from repro.he.params import EncryptionParams

        params = EncryptionParams(
            poly_degree=256,
            coeff_primes=tuple(modmath.ntt_primes(30, 256, k)),
            plain_modulus=257,
        )
        context = Context(params)
        ring = context.ring
        rng = np.random.default_rng(k)
        keygen = KeyGenerator(context, rng)
        relin_keys = keygen.relin_keys(keygen.secret_key())
        assert relin_keys.count == params.decomposition_count >= 2 * k - 1
        ct = Ciphertext(context, ring.sample_uniform(rng, 3, 3), is_ntt=False)

        acc = [ring.ntt(ct.data[:, 0]), ring.ntt(ct.data[:, 1])]
        c2 = oracle.Ring(ring.n, ring.primes).to_bigint(ct.data[:, 2])
        for i in range(relin_keys.count):
            digit = (c2 >> (params.decomposition_bits * i)) & (params.decomposition_base - 1)
            d_ntt = ring.ntt(ring.from_signed_small(digit.astype(np.int64)))
            for j, key in enumerate((relin_keys.key0_ntt, relin_keys.key1_ntt)):
                acc[j] = ring.add(acc[j], ring.pointwise_mul(key[i], d_ntt))
        expected = np.stack(acc, axis=-3).tobytes()

        for each in (context, oracle.Context(params)):
            counter = OperationCounter()
            relined = Evaluator(each, counter).relinearize(*_on(each, ct), relin_keys)
            assert relined.is_ntt and relined.data.tobytes() == expected
            assert counter.counts == {"relinearize": 3}

    def test_size_two_is_noop(self, encryptor, encoder, evaluator, relin_keys):
        ct = encryptor.encrypt(encoder.encode(5))
        assert evaluator.relinearize(ct, relin_keys) is ct

    def test_batched(self, encryptor, decryptor, encoder, evaluator, relin_keys, rng):
        values = rng.integers(-15, 15, size=4)
        ct = evaluator.square(encryptor.encrypt(encoder.encode(values)))
        relined = evaluator.relinearize(ct, relin_keys)
        assert np.array_equal(encoder.decode(decryptor.decrypt(relined)), values**2)

    def test_noise_cost_is_modest(
        self, encryptor, decryptor, encoder, evaluator, relin_keys
    ):
        ct = evaluator.square(encryptor.encrypt(encoder.encode(15)))
        before = decryptor.invariant_noise_budget(ct)
        after = decryptor.invariant_noise_budget(evaluator.relinearize(ct, relin_keys))
        assert after > before - 4  # relinearization adds only a few bits


class TestOperationCounter:
    def test_counts_batch_expanded_ops(self, context, encryptor, encoder, rng):
        counter = OperationCounter()
        evaluator = Evaluator(context, counter)
        values = rng.integers(-5, 5, size=10)
        ct = encryptor.encrypt(encoder.encode(values))
        evaluator.multiply_plain(ct, encoder.encode(3))
        evaluator.add(ct, ct)
        assert counter.get("ct_plain_mul") == 10
        assert counter.get("ct_add") == 10

    def test_sum_batch_counts_folds(self, context, encryptor, encoder, rng):
        counter = OperationCounter()
        evaluator = Evaluator(context, counter)
        ct = encryptor.encrypt(encoder.encode(rng.integers(0, 5, size=(4, 5))))
        evaluator.sum_batch(ct, axis=1)
        assert counter.get("ct_add") == 4 * 4  # (5-1) folds in 4 lanes

    def test_reset(self):
        counter = OperationCounter()
        counter.record("x", 3)
        counter.reset()
        assert counter.get("x") == 0


class TestNoiseGrowth:
    def test_budget_shrinks_monotonically(
        self, encryptor, decryptor, encoder, evaluator, relin_keys
    ):
        ct = encryptor.encrypt(encoder.encode(2))
        b0 = decryptor.invariant_noise_budget(ct)
        ct = evaluator.multiply_plain(ct, encoder.encode(9))
        b1 = decryptor.invariant_noise_budget(ct)
        ct = evaluator.relinearize(evaluator.square(ct), relin_keys)
        b2 = decryptor.invariant_noise_budget(ct)
        assert b0 >= b1 >= b2
        assert b2 > 0  # still decryptable at this depth
