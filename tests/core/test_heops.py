"""Homomorphic CNN ops must match the integer stage functions bit-exactly."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import heops
from repro.errors import ParameterError, PipelineError
from repro.graph import ir
from repro.he import (
    Context,
    Decryptor,
    Encryptor,
    EncryptionParams,
    Evaluator,
    KeyGenerator,
    OperationCounter,
    ScalarEncoder,
    modmath,
    oracle,
)
from repro.he.batching import (
    ClassLayout,
    pack_coefficients,
    read_classes,
    read_image,
    split_features,
    write_image,
    write_lanes,
)
from repro.he.decryptor import decrypt_scalar_values


@pytest.fixture(scope="module")
def rig(hybrid_params):
    context = Context(hybrid_params)
    rng = np.random.default_rng(13)
    keys = KeyGenerator(context, rng).generate()
    counter = OperationCounter()
    return {
        "context": context,
        "counter": counter,
        "evaluator": Evaluator(context, counter),
        "encoder": ScalarEncoder(context),
        "encryptor": Encryptor(context, keys.public, rng),
        "decryptor": Decryptor(context, keys.secret),
    }


def roundtrip(rig, ct):
    return rig["encoder"].decode(rig["decryptor"].decrypt(ct))


class TestHeConv2d:
    def test_matches_integer_conv(self, rig, q_sigmoid, models):
        images = models.dataset.test_images[:2]
        x = q_sigmoid.quantize_images(images)
        expected = q_sigmoid.conv_stage(x)
        weights = heops.encode_conv_weights(
            rig["evaluator"], rig["encoder"], q_sigmoid.conv_weight,
            q_sigmoid.conv_bias, q_sigmoid.stride,
        )
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(x))
        out = heops.he_conv2d(rig["evaluator"], rig["encoder"], ct, weights)
        assert np.array_equal(roundtrip(rig, out), expected)

    def test_stride_two(self, rig):
        rng = np.random.default_rng(3)
        x = rng.integers(-5, 6, size=(1, 1, 6, 6))
        w = rng.integers(-3, 4, size=(2, 1, 2, 2))
        b = rng.integers(-2, 3, size=2)
        from repro.nn.layers import conv2d_forward

        expected = conv2d_forward(x, w, None, 2) + b.reshape(1, 2, 1, 1)
        weights = heops.encode_conv_weights(rig["evaluator"], rig["encoder"], w, b, 2)
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(x))
        out = heops.he_conv2d(rig["evaluator"], rig["encoder"], ct, weights)
        assert np.array_equal(roundtrip(rig, out), expected)

    def test_op_counts_match_formula(self, rig, q_sigmoid):
        """Fig. 4's C x P / C + C structure: k*k*C per output pixel."""
        rig["counter"].reset()
        x = np.ones((1, 1, 6, 6), dtype=np.int64)
        w = np.ones((1, 1, 3, 3), dtype=np.int64)
        weights = heops.encode_conv_weights(
            rig["evaluator"], rig["encoder"], w, np.zeros(1, dtype=np.int64), 1
        )
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(x))
        heops.he_conv2d(rig["evaluator"], rig["encoder"], ct, weights)
        out_pixels = 4 * 4
        assert rig["counter"].get("ct_plain_mul") == 9 * out_pixels
        assert rig["counter"].get("ct_add") == 8 * out_pixels

    def test_rejects_flat_batch(self, rig):
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(np.zeros(4, dtype=np.int64)))
        weights = heops.encode_conv_weights(
            rig["evaluator"], rig["encoder"],
            np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(PipelineError):
            heops.he_conv2d(rig["evaluator"], rig["encoder"], ct, weights)

    def test_rejects_channel_mismatch(self, rig):
        x = np.zeros((1, 2, 4, 4), dtype=np.int64)
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(x))
        weights = heops.encode_conv_weights(
            rig["evaluator"], rig["encoder"],
            np.ones((1, 1, 2, 2), dtype=np.int64), np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(PipelineError):
            heops.he_conv2d(rig["evaluator"], rig["encoder"], ct, weights)


    @pytest.mark.parametrize(
        "context_type", [Context, oracle.Context], ids=["profile0", "profile1"]
    )
    def test_rejects_input_smaller_than_kernel(self, rig, context_type):
        """A 2x2 input under a 3x3 kernel used to come back as a 0x0
        feature map with fused and with oracle-encoded weights."""
        ct = rig["encryptor"].encrypt(
            rig["encoder"].encode(np.zeros((1, 1, 2, 2), dtype=np.int64))
        )
        evaluator = Evaluator(context_type(rig["evaluator"].context.params))
        weights = heops.encode_conv_weights(
            evaluator, rig["encoder"],
            np.ones((1, 1, 3, 3), dtype=np.int64), np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(PipelineError, match="smaller"):
            heops.he_conv2d(evaluator, rig["encoder"], ct, weights)


class TestImageConv:
    """The served request format's conv: one plaintext-polynomial product
    per (filter, channel) equals the integer conv, one image per
    ciphertext or the flush's ``P`` per ciphertext, the bias on occupied
    blocks only."""

    @pytest.fixture()
    def image_conv(self, rig, q_sigmoid, hybrid_params):
        layout = ir.image_layout(q_sigmoid, hybrid_params)
        return heops.encode_image_conv(rig["evaluator"], q_sigmoid, layout)

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_matches_integer_conv(self, rig, q_sigmoid, models, image_conv, batch):
        x = q_sigmoid.quantize_images(models.dataset.test_images[:batch])
        expected = q_sigmoid.conv_stage(x)
        ct = rig["encryptor"].encrypt(write_image(rig["context"], x))
        layout = image_conv.layout
        rig["counter"].reset()
        direct = heops.he_conv2d(rig["evaluator"], rig["encoder"], ct, image_conv)
        assert direct.batch_shape == (batch, q_sigmoid.conv_weight.shape[0])
        assert rig["counter"].get("ct_plain_mul") == direct.batch_count  # C = 1
        plain = rig["decryptor"].decrypt(direct)
        assert np.array_equal(read_image(plain, layout), expected)
        folded = pack_coefficients(rig["evaluator"], ct, stride=layout.pixels)
        per = layout.per_ciphertext(rig["context"].poly_degree)  # 2 at n = 256
        packed = heops.he_conv2d(rig["evaluator"], rig["encoder"], folded, image_conv, batch)
        assert packed.batch_shape[0] == -(-batch // per)
        plain = rig["decryptor"].decrypt(packed)
        assert np.array_equal(read_image(plain, layout, batch, per), expected)

    def test_rejects_what_it_cannot_hold(self, rig, image_conv):
        zeros = np.zeros((3, 1, 10, 10), dtype=np.int64)
        ct = rig["encryptor"].encrypt(write_image(rig["context"], zeros))
        with pytest.raises(PipelineError, match=r"expects \(B, 1\)"):
            heops.he_conv2d(rig["evaluator"], rig["encoder"], ct[:, :0], image_conv)
        with pytest.raises(PipelineError, match="cannot hold 7 images at 2 each"):
            heops.he_conv2d(rig["evaluator"], rig["encoder"], ct, image_conv, 7)


class TestHeSquareAndPool:
    def test_square_matches(self, rig):
        values = np.arange(-4, 4, dtype=np.int64).reshape(1, 1, 2, 4)
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(values))
        out = heops.he_square(rig["evaluator"], ct)
        assert np.array_equal(roundtrip(rig, out), values * values)

    def test_scaled_pool_matches(self, rig, q_sigmoid):
        values = np.arange(32, dtype=np.int64).reshape(1, 2, 4, 4)
        expected = q_sigmoid.scaled_pool_stage(values)
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(values))
        out = heops.he_scaled_mean_pool(rig["evaluator"], ct, 2)
        assert np.array_equal(roundtrip(rig, out), expected)

    def test_scaled_pool_window_4(self, rig):
        values = np.ones((1, 1, 4, 4), dtype=np.int64)
        out = heops.he_scaled_mean_pool(rig["evaluator"],
                                        rig["encryptor"].encrypt(rig["encoder"].encode(values)), 4)
        assert roundtrip(rig, out)[0, 0, 0, 0] == 16

    def test_pool_rejects_indivisible(self, rig):
        values = np.zeros((1, 1, 5, 5), dtype=np.int64)
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(values))
        with pytest.raises(PipelineError):
            heops.he_scaled_mean_pool(rig["evaluator"], ct, 2)

    @pytest.mark.parametrize("window", [0, -2])
    def test_pool_rejects_window_below_one(self, rig, window):
        values = np.zeros((1, 1, 4, 4), dtype=np.int64)
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(values))
        with pytest.raises(PipelineError, match="window must be >= 1"):
            heops.he_scaled_mean_pool(rig["evaluator"], ct, window)


class TestHeDense:
    def test_matches_integer_fc(self, rig, q_sigmoid, models):
        images = models.dataset.test_images[:2]
        conv = q_sigmoid.conv_stage(q_sigmoid.quantize_images(images))
        hidden = q_sigmoid.enclave_stage(conv)
        expected = q_sigmoid.fc_stage(hidden)
        weights = heops.encode_dense_weights(
            rig["evaluator"], rig["encoder"], q_sigmoid.dense_weight, q_sigmoid.dense_bias
        )
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(hidden))
        out = heops.he_dense(rig["evaluator"], rig["encoder"], ct, weights)
        assert np.array_equal(roundtrip(rig, out), expected)

    def test_rejects_wrong_width(self, rig):
        weights = heops.encode_dense_weights(
            rig["evaluator"], rig["encoder"],
            np.ones((8, 3), dtype=np.int64), np.zeros(3, dtype=np.int64),
        )
        ct = rig["encryptor"].encrypt(
            rig["encoder"].encode(np.zeros((1, 4), dtype=np.int64))
        )
        with pytest.raises(PipelineError):
            heops.he_dense(rig["evaluator"], rig["encoder"], ct, weights)


@pytest.fixture(scope="module", params=[(256, 20), (1024, 20), (1024, 30)],
                ids=["n256", "n1024", "n1024-t30"])
def class_rig(request):
    """A 30-bit ``t`` lets weights near ``2^28`` break the scalar fc's int64
    bound, which sends it to the per-class loop; four primes leave both fcs
    budget to spare at those weights."""
    degree, plain_bits = request.param
    context = Context(EncryptionParams(
        poly_degree=degree,
        coeff_primes=tuple(modmath.ntt_primes(30, degree, 4 if plain_bits == 30 else 2)),
        plain_modulus=1 << plain_bits,
        name=f"class_dense_{degree}_t{plain_bits}",
    ))
    rng = np.random.default_rng(29)
    keys = KeyGenerator(context, rng).generate()
    return {
        "context": context,
        "wide": plain_bits == 30,
        "encoder": ScalarEncoder(context),
        "encryptor": Encryptor(context, keys.public, rng),
        "decryptor": Decryptor(context, keys.secret),
    }


class TestClassDense:
    """The direct path's fc is one plaintext-polynomial product per (result,
    feature) polynomial: the class positions of what it leaves hold the
    scalar contraction's logits, whatever the weights, and every coefficient
    past the products' reach is zero."""

    @staticmethod
    def model(rig, zero_columns, features=64):
        rng = np.random.default_rng(31)
        top = 1 << 28 if rig["wide"] else 9
        weight = rng.integers(-top, top, size=(features, 5))
        weight[0, 0] = -top
        if zero_columns:
            weight[[0, 7, features - 1], :] = 0
        return SimpleNamespace(dense_weight=weight, dense_bias=rng.integers(-50, 50, size=5))

    @staticmethod
    def oracle(rig, hidden, quantized):
        """The scalar contraction's decrypted logits."""
        evaluator = Evaluator(rig["context"])
        scalar = heops.encode_dense_weights(
            evaluator, rig["encoder"], quantized.dense_weight, quantized.dense_bias
        )
        assert scalar.fused != rig["wide"]  # past the bound: the per-class loop
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(hidden))
        logits = heops.he_dense(evaluator, rig["encoder"], ct, scalar)
        return decrypt_scalar_values(rig["decryptor"], rig["encoder"], logits)

    @staticmethod
    def class_fc(rig, hidden, quantized, counter=None):
        """``hidden`` as the crossing writes it, through the class-strided
        fc; the class positions read back (the range probe opened to all of
        ``t``: the wide weights' logits wrap)."""
        context = rig["context"]
        features, classes = quantized.dense_weight.shape
        layout = ClassLayout(
            features, classes, context.poly_degree, context.plain_modulus // 2
        )
        evaluator = Evaluator(context, counter)
        weights = heops.encode_class_dense(evaluator, quantized, layout)
        split = split_features(hidden.reshape(len(hidden), -1), context.poly_degree)
        ct = rig["encryptor"].encrypt(write_lanes(context, np.moveaxis(split, -1, 0)))
        out = heops.he_dense(
            evaluator, rig["encoder"], ct.reshape(*split.shape[:2]), weights
        )
        assert out.batch_shape == (len(hidden), layout.result_polys) and out.is_ntt
        return read_classes(rig["decryptor"].decrypt(out), layout, len(hidden)), layout

    @pytest.mark.parametrize("zero_columns", [False, True], ids=["dense", "keep"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_scalar_fc_then_class_fold(self, class_rig, batch, zero_columns):
        rig = class_rig
        quantized = self.model(rig, zero_columns)
        hidden = np.random.default_rng(batch).integers(-20, 20, size=(batch, 4, 4, 4))
        counter = OperationCounter()
        logits, layout = self.class_fc(rig, hidden, quantized, counter)
        # 64 features leave room for 3 classes per polynomial at n = 256.
        assert layout.result_polys == {256: 2, 1024: 1}[rig["context"].poly_degree]
        assert np.array_equal(logits, self.oracle(rig, hidden, quantized))
        assert counter.counts == {
            "ct_plain_mul": 64 * batch,
            "ct_add": 63 * batch,
            "plain_add": layout.result_polys * batch,
        }
        if not rig["wide"]:
            expected = hidden.reshape(batch, -1) @ quantized.dense_weight
            assert np.array_equal(logits, expected + quantized.dense_bias)

    def test_features_past_half_the_ring_split_over_polynomials(self, class_rig):
        rig = class_rig
        n = rig["context"].poly_degree
        quantized = self.model(rig, True, features=n // 2 + 72)
        hidden = np.random.default_rng(5).integers(-20, 20, size=(2, n // 2 + 72))
        logits, layout = self.class_fc(rig, hidden, quantized)
        assert layout.feature_polys == 2
        assert np.array_equal(logits, self.oracle(rig, hidden, quantized))
        if not rig["wide"]:
            expected = hidden @ quantized.dense_weight + quantized.dense_bias
            assert np.array_equal(logits, expected)

    def test_rejects_what_it_cannot_hold(self, class_rig):
        rig = class_rig
        context = rig["context"]
        evaluator = Evaluator(context)
        quantized = self.model(rig, False)
        layout = ClassLayout(64, 5, context.poly_degree, 1)
        weights = heops.encode_class_dense(evaluator, quantized, layout)
        ct = rig["encryptor"].encrypt(rig["encoder"].encode(np.zeros((2, 8), dtype=np.int64)))
        with pytest.raises(PipelineError, match=r"expects \(B, 1\) feature ciphertexts"):
            heops.he_dense(evaluator, rig["encoder"], ct, weights)
        n = context.poly_degree
        wide = SimpleNamespace(dense_weight=np.ones((2, n + 1), dtype=np.int64), fc_bound=1)
        with pytest.raises(ParameterError, match=f"{n + 1} classes do not fit"):
            ir.class_layout(wide, context.params)
