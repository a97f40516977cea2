"""SIMD batching: slot packing and slot-wise homomorphic semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.he import (
    BatchEncoder,
    Ciphertext,
    Context,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    modmath,
    small_parameter_options,
)
from repro.he.batching import (
    lane_operand,
    lane_plain,
    pack_coefficients,
    read_lanes,
    write_lanes,
)
from repro.he.context import Plaintext
from repro.he.params import EncryptionParams


@pytest.fixture(scope="module")
def batch_encoder(context):
    return BatchEncoder(context)


class TestSlotCodec:
    def test_slot_count(self, batch_encoder, context):
        assert batch_encoder.slot_count == context.poly_degree

    def test_full_roundtrip(self, batch_encoder, context, rng):
        t = context.plain_modulus
        values = rng.integers(-(t // 2), t // 2, size=batch_encoder.slot_count)
        assert np.array_equal(batch_encoder.decode(batch_encoder.encode(values)), values)

    def test_partial_vector_zero_pads(self, batch_encoder):
        decoded = batch_encoder.decode(batch_encoder.encode(np.array([1, 2, 3])))
        assert decoded[:3].tolist() == [1, 2, 3]
        assert not decoded[3:].any()

    def test_rejects_oversized_vector(self, batch_encoder):
        with pytest.raises(EncodingError):
            batch_encoder.encode(np.zeros(batch_encoder.slot_count + 1))

    def test_rejects_non_batching_modulus(self):
        params = small_parameter_options()[256]
        bad = EncryptionParams(
            poly_degree=params.poly_degree,
            coeff_primes=params.coeff_primes,
            plain_modulus=257,  # prime but 256 !≡ 0 mod 512
        )
        with pytest.raises(EncodingError):
            BatchEncoder(Context(bad))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=64))
    def test_roundtrip_property(self, context, values):
        encoder = BatchEncoder(context)
        decoded = encoder.decode(encoder.encode(np.array(values)))
        assert decoded[: len(values)].tolist() == values


class TestSlotwiseHomomorphism:
    def test_add_is_slotwise(
        self, batch_encoder, encryptor, decryptor, evaluator, rng
    ):
        a = rng.integers(-100, 100, size=16)
        b = rng.integers(-100, 100, size=16)
        ct = evaluator.add(
            encryptor.encrypt(batch_encoder.encode(a)),
            encryptor.encrypt(batch_encoder.encode(b)),
        )
        decoded = batch_encoder.decode(decryptor.decrypt(ct))
        assert np.array_equal(decoded[:16], a + b)

    def test_multiply_is_slotwise(
        self, batch_encoder, encryptor, decryptor, evaluator, rng
    ):
        a = rng.integers(-50, 50, size=16)
        b = rng.integers(-50, 50, size=16)
        ct = evaluator.multiply(
            encryptor.encrypt(batch_encoder.encode(a)),
            encryptor.encrypt(batch_encoder.encode(b)),
        )
        decoded = batch_encoder.decode(decryptor.decrypt(ct))
        assert np.array_equal(decoded[:16], a * b)

    def test_plain_multiply_is_slotwise(
        self, batch_encoder, encryptor, decryptor, evaluator, rng
    ):
        a = rng.integers(-50, 50, size=16)
        w = rng.integers(-50, 50, size=16)
        ct = evaluator.multiply_plain(
            encryptor.encrypt(batch_encoder.encode(a)), batch_encoder.encode(w)
        )
        decoded = batch_encoder.decode(decryptor.decrypt(ct))
        assert np.array_equal(decoded[:16], a * w)

    def test_throughput_amplification(self, batch_encoder, encryptor, decryptor, evaluator):
        """One ciphertext carries slot_count independent values -- the paper's
        Section VIII claim that SIMD multiplies throughput by n."""
        n = batch_encoder.slot_count
        values = np.arange(n) % 97 - 48
        ct = encryptor.encrypt(batch_encoder.encode(values))
        doubled = evaluator.add(ct, ct)
        assert np.array_equal(
            batch_encoder.decode(decryptor.decrypt(doubled)), values * 2
        )


class TestCoefficientFold:
    """``pack_coefficients`` over a flush's requests, un-stacked: request
    image ``b`` lands in coefficient ``b`` of every tensor position."""

    def test_unstacked_requests_land_in_their_coefficients(
        self, context, encoder, encryptor, decryptor, evaluator, rng
    ):
        values = [rng.integers(-50, 50, size=(b, 4)) for b in (1, 3, 2, 1)]
        parts = [encryptor.encrypt(encoder.encode(v)) for v in values]
        folded = pack_coefficients(evaluator, parts)
        assert folded.batch_shape == (4,)
        coeffs = decryptor.decrypt(folded).signed_coeffs()
        assert np.array_equal(coeffs[:, :7].T, np.concatenate(values))
        assert not coeffs[:, 7:].any()
        whole = encryptor.encrypt(encoder.encode(np.concatenate(values)))
        stacked = decryptor.decrypt(pack_coefficients(evaluator, whole)).signed_coeffs()
        assert np.array_equal(stacked, coeffs)

    def test_a_bad_part_is_an_encoding_error_not_a_broadcast_error(
        self, context, encoder, encryptor, evaluator
    ):
        good = encryptor.encrypt(encoder.encode(np.zeros((2, 4), dtype=np.int64)))
        odd = encryptor.encrypt(encoder.encode(np.zeros((2, 5), dtype=np.int64)))
        with pytest.raises(EncodingError, match="part 1 has trailing shape"):
            pack_coefficients(evaluator, [good, odd])
        with pytest.raises(EncodingError, match="part 1 is in coefficient domain"):
            pack_coefficients(evaluator, [good, good.to_coeff()])


class TestLanes:
    """The folded ciphertext *is* the batch-axis ciphertext: scalar layers
    act lane-wise, a bias is spread over the lanes, values are read from and
    written to coefficients ``0..B-1``."""

    def test_scalar_layer_on_the_fold_is_the_layer_on_every_request(
        self, context, encoder, encryptor, decryptor, evaluator, rng
    ):
        values = rng.integers(-20, 20, size=(5, 3))
        folded = pack_coefficients(evaluator, encryptor.encrypt(encoder.encode(values)))
        weight = evaluator.transform_plain(encoder.encode(-7))
        bias = evaluator.transform_plain_delta(encoder.encode(np.array([4, -9, 0])))
        out = evaluator.add_plain_operand(
            evaluator.multiply_plain(folded, weight), lane_operand(bias, 5)
        )
        lanes = read_lanes(decryptor.decrypt(out.reshape(1, 3)), 5)
        assert np.array_equal(lanes, values * -7 + np.array([4, -9, 0]))

    @pytest.mark.parametrize("lanes", [1, 2, 7])
    def test_lane_operand_is_the_transformed_lane_plaintext(
        self, context, encoder, evaluator, lanes
    ):
        plain = encoder.encode(np.array([[3], [-5]]))
        spread = lane_plain(plain, lanes)
        assert np.array_equal(spread.signed_coeffs()[..., :lanes], [[[3] * lanes], [[-5] * lanes]])
        assert not spread.coeffs[..., lanes:].any()
        operand = evaluator.transform_plain_delta(plain)
        assert np.array_equal(
            lane_operand(operand, lanes).ntt_data,
            evaluator.transform_plain_delta(spread).ntt_data,
        )
        if lanes == 1:  # scalar encoding: nothing is built
            assert lane_operand(operand, 1) is operand
            assert np.array_equal(spread.coeffs, plain.coeffs)

    def test_write_then_read_round_trips_signed_values(self, context, rng):
        t = context.plain_modulus
        values = rng.integers(-(t // 2), t // 2 + 1, size=(6, 2, 3))
        plain = write_lanes(context, values)
        assert plain.batch_shape == (1, 2, 3)
        assert np.array_equal(read_lanes(plain, 6), values)
        assert np.array_equal(read_lanes(plain, 9)[:6], values)  # zero lanes are legal
        too_many = np.zeros((context.poly_degree + 1, 2), dtype=np.int64)
        with pytest.raises(EncodingError, match="exceed the ring degree"):
            write_lanes(context, too_many)

    def test_read_refuses_what_is_not_lane_encoded(self, context, rng):
        plain = write_lanes(context, rng.integers(1, 9, size=(6, 2)))
        with pytest.raises(EncodingError, match=r"not lane-encoded .* for a batch of 5"):
            read_lanes(plain, 5)
        stacked = Plaintext(context, np.zeros((2, context.poly_degree), dtype=np.int64))
        with pytest.raises(EncodingError, match=r"\(2,\) is not lane-encoded as \(1, \*rest\)"):
            read_lanes(stacked, 1)
        for lanes in (0, -1, context.poly_degree + 1):
            with pytest.raises(EncodingError, match="batch must be in"):
                read_lanes(plain, lanes)


class TestPackingMonomialMemo:
    """``pack_coefficients`` reads ``NTT(x^b)`` from a prefix memo on the
    context: a repeat or smaller ``B`` transforms nothing, and the memo never
    outgrows the ring degree."""

    def test_repeat_and_smaller_batches_transform_nothing(self, monkeypatch):
        degree = 16
        context = Context(
            EncryptionParams(
                poly_degree=degree,
                coeff_primes=tuple(modmath.ntt_primes(30, degree, 2)),
                plain_modulus=257,
            )
        )
        evaluator = Evaluator(context)
        rng = np.random.default_rng(4)
        forward = []
        original = context.ring.ntt
        monkeypatch.setattr(
            context.ring, "ntt", lambda a: forward.append(a.shape[0]) or original(a)
        )

        def fold(batch):
            data = context.ring.sample_uniform(rng, batch, 3, 2)
            return pack_coefficients(evaluator, Ciphertext(context, data, is_ntt=True))

        stacked = Ciphertext(context, context.ring.sample_uniform(rng, 6, 3, 2), is_ntt=True)
        first = pack_coefficients(evaluator, stacked)
        assert forward == [6]  # rows x^0 .. x^5, once
        again = pack_coefficients(evaluator, stacked)
        assert again.data.tobytes() == first.data.tobytes()
        fold(4)
        assert forward == [6]
        fold(9)
        assert forward == [6, 3]  # only the rows it lacked
        for batch in (*range(1, degree + 1), *range(degree, 0, -1)):
            fold(batch)
        assert sum(forward) == degree == context._monomial_ntt.shape[0]
        eye = np.eye(degree, dtype=np.int64)
        assert np.array_equal(context._monomial_ntt, original(context.ring.from_signed_small(eye)))
        with pytest.raises(EncodingError, match="exceeds the ring degree"):
            fold(degree + 1)
        assert context._monomial_ntt.shape[0] == degree
