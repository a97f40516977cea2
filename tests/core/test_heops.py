"""Homomorphic CNN ops must match the integer stage functions bit-exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import heops
from repro.errors import PipelineError
from repro.graph import ir
from repro.he import (
    Context,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    OperationCounter,
    ScalarEncoder,
    oracle,
)
from repro.he.batching import pack_coefficients, read_image, write_image


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
        expected = q_sigmoid.blocks[0].conv_stage(x)
        weights = heops.encode_conv_weights(
            rig["evaluator"], rig["encoder"], q_sigmoid.blocks[0].weight,
            q_sigmoid.blocks[0].bias, q_sigmoid.blocks[0].stride,
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
        layout = ir.build_graph("served", q_sigmoid, hybrid_params).node(
            "crossing_image"
        ).attrs["image"]
        return heops.encode_image_conv(rig["evaluator"], q_sigmoid.blocks[0], layout)

    @pytest.mark.parametrize("batch", [1, 2, 3, 5])
    def test_matches_integer_conv(self, rig, q_sigmoid, models, image_conv, batch):
        x = q_sigmoid.quantize_images(models.dataset.test_images[:batch])
        expected = q_sigmoid.blocks[0].conv_stage(x)
        ct = rig["encryptor"].encrypt(write_image(rig["context"], x))
        layout = image_conv.layout
        rig["counter"].reset()
        direct = heops.he_conv2d(rig["evaluator"], rig["encoder"], ct, image_conv)
        assert direct.batch_shape == (batch, q_sigmoid.blocks[0].weight.shape[0])
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
        assert np.array_equal(roundtrip(rig, rig["evaluator"].rescale(out)), values * values)

    def test_scaled_pool_matches(self, rig, q_sigmoid):
        values = np.arange(32, dtype=np.int64).reshape(1, 2, 4, 4)
        expected = q_sigmoid.blocks[0].scaled_pool_stage(values)
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
        conv = q_sigmoid.blocks[0].conv_stage(q_sigmoid.quantize_images(images))
        hidden = q_sigmoid.blocks[0].enclave_stage(conv, q_sigmoid.input_scale)
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
