"""Coefficient lanes: the fold, the lane layout and lane-wise semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.he import Ciphertext, Context, Evaluator, modmath
from repro.he.batching import (
    lane_operand,
    lane_plain,
    pack_coefficients,
    read_lanes,
    write_lanes,
)
from repro.he.context import Plaintext
from repro.he.params import EncryptionParams


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

    def test_add_is_lanewise(self, context, encryptor, decryptor, evaluator, rng):
        a = rng.integers(-100, 100, size=(16, 2))
        b = rng.integers(-100, 100, size=(16, 2))
        ct = evaluator.add(
            encryptor.encrypt(write_lanes(context, a)),
            encryptor.encrypt(write_lanes(context, b)),
        )
        assert np.array_equal(read_lanes(decryptor.decrypt(ct), 16), a + b)

    def test_throughput_amplification(self, context, encoder, encryptor, decryptor, evaluator):
        """One ciphertext carries ``n`` independent values and one scalar
        multiply acts on all of them -- the paper's Section VIII claim that
        packing multiplies throughput by ``n``."""
        n = context.poly_degree
        values = np.arange(n) % 97 - 48
        ct = encryptor.encrypt(write_lanes(context, values))
        tripled = evaluator.multiply_plain(ct, evaluator.transform_plain(encoder.encode(3)))
        assert np.array_equal(read_lanes(decryptor.decrypt(tripled), n), values * 3)

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
