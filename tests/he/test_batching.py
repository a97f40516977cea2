"""Coefficient lanes: the fold, the lane layout and lane-wise semantics;
and the served request format, one image per polynomial."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EncodingError
from repro.he import Ciphertext, Context, Evaluator, modmath
from repro.he.batching import (
    ImageLayout,
    pack_coefficients,
    read_image,
    read_lanes,
    write_image,
    write_lanes,
)
from repro.he.context import Plaintext
from repro.he.params import EncryptionParams
from repro.nn.layers import conv2d_forward


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
    act lane-wise, values are read from and written to coefficients
    ``0..B-1``."""

    def test_scalar_layer_on_the_fold_is_the_layer_on_every_request(
        self, context, encoder, encryptor, decryptor, evaluator, rng
    ):
        values = rng.integers(-20, 20, size=(5, 3))
        folded = pack_coefficients(evaluator, encryptor.encrypt(encoder.encode(values)))
        weight = evaluator.transform_plain(encoder.encode(-7))
        # The bias of every request: the same row in each of lanes 0..4.
        spread = write_lanes(context, np.tile([4, -9, 0], (5, 1)))
        bias = evaluator.transform_plain_delta(spread)
        out = evaluator.add_plain_operand(evaluator.multiply_plain(folded, weight), bias)
        lanes = read_lanes(decryptor.decrypt(out.reshape(1, 3)), 5)
        assert np.array_equal(lanes, values * -7 + np.array([4, -9, 0]))

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


def _negacyclic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b mod (x^n + 1)`` over the integers."""
    n = a.shape[-1]
    full = np.convolve(a, b)
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return out


class TestImageLayout:
    """Pixel ``(i, j)`` in coefficient ``i*W + j``, ``P = n // (H*W)``
    images per polynomial: the product with ``K(x)`` leaves every conv
    output alone in its coefficient, a block's spill stops exactly at the
    next block's first output, and the last block's negacyclic wrap stays
    below block 0's first output."""

    @pytest.mark.parametrize("side,stride", [(8, 1), (9, 2)])
    def test_every_output_lands_alone(self, context, side, stride):
        n = context.poly_degree
        rng = np.random.default_rng(side)
        weight = rng.integers(-4, 5, size=(3, 3))
        bias = -7
        bound = 9 * 15 * 4 + 7
        layout = ImageLayout(side, side, 3, stride, bound)
        per = layout.per_ciphertext(n)
        assert per * layout.pixels + layout.spill > n  # the last block wraps
        kernel = np.zeros(n, dtype=np.int64)
        kernel[layout.kernel_offsets().ravel()] = weight.ravel()
        for batch in (1, per - 1, per):
            images = rng.integers(0, 16, size=(batch, 1, side, side))
            polynomial = np.zeros(n, dtype=np.int64)
            for b in range(batch):
                polynomial[b * layout.pixels : (b + 1) * layout.pixels] = images[b].ravel()
            product = _negacyclic(polynomial, kernel)
            for b in range(batch):  # the bias, on occupied blocks only
                product[b * layout.pixels + layout.output_offsets().ravel()] += bias
            plain = Plaintext(context, product.reshape(1, 1, n))
            expected = conv2d_forward(images, weight.reshape(1, 1, 3, 3), None, stride)
            assert np.array_equal(read_image(plain, layout, batch, per), expected + bias)

    def test_read_refuses_what_is_not_image_encoded(self, context):
        n = context.poly_degree
        layout = ImageLayout(8, 8, 3, 1, bound=100)
        per = layout.per_ciphertext(n)  # 4
        clean = np.zeros((2, 3, n), dtype=np.int64)
        assert read_image(Plaintext(context, clean), layout, 5, per).shape == (5, 3, 6, 6)
        # Five images reach block 1 of row 1 and its spill, nothing further:
        # a value there -- the fold of a sixth image declared as five, or a
        # stray past the last image -- is refused, as is anything past the
        # conv bound, partial sums included.
        reach = layout.pixels + layout.spill  # row 1 holds image 4 alone
        for row, at, value, match in (
            (1, reach, 1, "no image reaches"),
            (1, 2 * layout.pixels + 30, -3, "no image reaches"),
            (0, 5, 101, "conv bound"),
            (0, n - 1, -101, "conv bound"),
        ):
            tampered = clean.copy()
            tampered[row, 2, at] = value
            with pytest.raises(EncodingError, match=match):
                read_image(Plaintext(context, tampered), layout, 5, per)
        tampered = clean.copy()
        tampered[1, 0, reach - 1] = -100  # the spill itself holds partial sums
        read_image(Plaintext(context, tampered), layout, 5, per)
        for batch in (0, 4, 9):
            with pytest.raises(EncodingError, match=r"batch must be in \[5, 8\]"):
                read_image(Plaintext(context, clean), layout, batch, per)
        with pytest.raises(EncodingError, match=r"\(rows, F\)"):
            read_image(Plaintext(context, clean[0, 0]), layout)
        assert read_image(Plaintext(context, clean), layout).shape == (2, 3, 6, 6)

    def test_write_image_fits_one_image_per_polynomial(self, context, rng):
        pixels = rng.integers(0, 255, size=(2, 3, 10, 12))
        plain = write_image(context, pixels)
        assert plain.batch_shape == (2, 3)
        assert np.array_equal(plain.coeffs[..., :120].reshape(pixels.shape), pixels)
        assert not plain.coeffs[..., 120:].any()
        with pytest.raises(EncodingError, match="17x16 image does not fit 256"):
            write_image(context, np.zeros((1, 1, 17, 16), dtype=np.int64))
        with pytest.raises(EncodingError, match=r"\(B, C, H, W\)"):
            write_image(context, np.zeros((1, 8, 8), dtype=np.int64))

    def test_stride_fold_puts_image_b_in_block_b_mod_p(
        self, context, encryptor, decryptor, rng
    ):
        """The flush's fold: ``ceil(B / P)`` ciphertexts, image ``b`` at
        ``x^(H*W*(b % P))`` of row ``b // P``, read from a memo of ``P``
        stride monomials -- the prefix memo is never touched."""
        fresh = Context(context.params)
        evaluator = Evaluator(fresh)
        layout = ImageLayout(9, 9, 3, 1, bound=1)
        images = [rng.integers(-9, 9, size=(b, 2, 9, 9)) for b in (1, 3, 2, 1)]
        parts = [encryptor.encrypt(write_image(context, im)) for im in images]
        folded = pack_coefficients(evaluator, parts, stride=layout.pixels)
        per = layout.per_ciphertext(fresh.poly_degree)  # 3
        assert folded.batch_shape == (3, 2)
        coeffs = decryptor.decrypt(folded).signed_coeffs()
        for b, image in enumerate(np.concatenate(images)):
            at = (b % per) * layout.pixels
            assert np.array_equal(coeffs[b // per, :, at : at + 81], image.reshape(2, 81))
        assert not coeffs[2, :, 81:].any()  # row 2 holds image 6 alone
        assert fresh._monomial_ntt is None
        assert fresh._stride_monomials[81].shape[0] == per
        with pytest.raises(EncodingError, match="stride of 257 exceeds"):
            pack_coefficients(evaluator, parts, stride=257)

