"""Quantization: scale bookkeeping, stage equivalence, modulus bounds."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import (
    QuantizedCNN,
    Sequential,
    cryptonets_cnn,
    deep_cnn,
    paper_cnn,
    scaled_cnn,
    synthetic_mnist,
)
from repro.nn.layers import Conv2D, Dense, MaxPool2D, MeanPool2D, ReLU, Sigmoid


@pytest.fixture(scope="module")
def tiny_data():
    return synthetic_mnist(train_size=40, test_size=20, seed=5)


@pytest.fixture(scope="module")
def float_model():
    return paper_cnn(np.random.default_rng(0))


@pytest.fixture(scope="module")
def quantized(float_model):
    return QuantizedCNN.from_float(float_model)


class TestConstruction:
    def test_from_paper_cnn(self, quantized):
        assert quantized.blocks[0].activation == "sigmoid"
        assert quantized.blocks[0].pool == "mean"
        assert quantized.blocks[0].weight.dtype == np.int64

    def test_from_cryptonets_cnn(self):
        q = QuantizedCNN.from_float(cryptonets_cnn(np.random.default_rng(0)))
        assert q.blocks[0].activation == "square"
        assert q.blocks[0].pool == "scaled_mean"

    def test_weight_bits_respected(self, float_model):
        q4 = QuantizedCNN.from_float(float_model, weight_bits=4)
        assert np.abs(q4.blocks[0].weight).max() <= 7
        q8 = QuantizedCNN.from_float(float_model, weight_bits=8)
        assert np.abs(q8.blocks[0].weight).max() <= 127

    def test_rejects_wrong_architecture(self):
        model = Sequential([Dense(4, 2, rng=np.random.default_rng(0))])
        with pytest.raises(ModelError):
            QuantizedCNN.from_float(model)

    def test_max_pool_architecture_supported(self):
        model = Sequential(
            [
                Conv2D(1, 2, kernel_size=3, rng=np.random.default_rng(0)),
                Sigmoid(),
                MaxPool2D(2),
                Dense(2 * 3 * 3, 10, rng=np.random.default_rng(0)),
            ]
        )
        q = QuantizedCNN.from_float(model)
        assert q.blocks[0].pool == "max"

    def test_tanh_architecture_supported(self):
        from repro.nn import scaled_cnn

        model = scaled_cnn(image_size=8, activation="tanh", pool="max")
        q = QuantizedCNN.from_float(model)
        assert q.blocks[0].activation == "tanh"
        assert q.blocks[0].pool == "max"

    def test_relu_layer_rejected(self):
        model = Sequential(
            [
                Conv2D(1, 2, kernel_size=3, rng=np.random.default_rng(0)),
                ReLU(),
                MeanPool2D(2),
                Dense(2 * 3 * 3, 10, rng=np.random.default_rng(0)),
            ]
        )
        # ReLU is unbounded, so the fixed act_scale requantization does not
        # apply; the quantizer rejects it rather than silently clipping.
        with pytest.raises(ModelError):
            QuantizedCNN.from_float(model)

    def test_exact_pipeline_with_scaled_mean_rejected(self, float_model):
        q = QuantizedCNN.from_float(float_model)
        with pytest.raises(ModelError):
            dataclasses.replace(q.blocks[0], activation="tanh", pool="scaled_mean")

    def test_square_with_mean_pool_rejected(self, float_model):
        q = QuantizedCNN.from_float(float_model)
        with pytest.raises(ModelError):
            dataclasses.replace(q.blocks[0], activation="square", pool="mean")

    @pytest.mark.parametrize(
        "activation, pool, message",
        [("relu", "mean", "unsupported activation 'relu'"),
         ("sigmoid", "median", "unsupported pool 'median'")],
    )
    def test_block_with_unknown_activation_or_pool_rejected(
        self, float_model, activation, pool, message
    ):
        q = QuantizedCNN.from_float(float_model)
        with pytest.raises(ModelError, match=message):
            dataclasses.replace(q.blocks[0], activation=activation, pool=pool)

    def test_square_block_rejected_in_a_deeper_model(self):
        q = QuantizedCNN.from_float(cryptonets_cnn(np.random.default_rng(0)))
        with pytest.raises(ModelError, match="square block"):
            QuantizedCNN(
                blocks=[q.blocks[0], q.blocks[0]],
                dense_weight=q.dense_weight,
                dense_bias=q.dense_bias,
                dense_weight_scale=q.dense_weight_scale,
                input_scale=q.input_scale,
            )

    def test_model_without_blocks_rejected(self, quantized):
        with pytest.raises(ModelError, match="at least one conv block"):
            QuantizedCNN(
                blocks=[],
                dense_weight=quantized.dense_weight,
                dense_bias=quantized.dense_bias,
                dense_weight_scale=quantized.dense_weight_scale,
                input_scale=quantized.input_scale,
            )


class TestStageSemantics:
    def test_quantize_images_uint8(self, quantized, tiny_data):
        x = quantized.quantize_images(tiny_data.test_images[:2])
        assert x.dtype == np.int64
        assert x.max() <= quantized.input_scale

    def test_quantize_images_float(self, quantized):
        x = quantized.quantize_images(np.full((1, 1, 28, 28), 0.5))
        assert x.max() == round(0.5 * quantized.input_scale)

    def test_forward_int_composes_stages(self, quantized, tiny_data):
        images = tiny_data.test_images[:3]
        x = quantized.quantize_images(images)
        block = quantized.blocks[0]
        manual = quantized.fc_stage(
            block.enclave_stage(block.conv_stage(x), quantized.input_scale)
        )
        assert np.array_equal(manual, quantized.forward_int(images))

    def test_square_pipeline_is_pure_integer(self, tiny_data):
        q = QuantizedCNN.from_float(
            cryptonets_cnn(np.random.default_rng(0)),
            weight_bits=4,
            input_scale=15,
        )
        logits = q.forward_int(tiny_data.test_images[:3])
        assert logits.dtype == np.int64

    def test_enclave_stage_rejected_for_square(self, tiny_data):
        q = QuantizedCNN.from_float(cryptonets_cnn(np.random.default_rng(0)))
        block = q.blocks[0]
        conv = block.conv_stage(q.quantize_images(tiny_data.test_images[:1]))
        with pytest.raises(ModelError):
            block.enclave_stage(conv, q.input_scale)

    def test_scaled_pool_is_window_sum(self, quantized):
        x = np.arange(16, dtype=np.int64).reshape(1, 1, 4, 4)
        pooled = quantized.blocks[0].scaled_pool_stage(x)
        assert pooled[0, 0, 0, 0] == 0 + 1 + 4 + 5


class TestFidelity:
    def test_quantized_tracks_float_model(self, float_model, quantized, tiny_data):
        """8-bit quantization rarely changes the argmax."""
        images = tiny_data.test_images
        float_preds = float_model.predict(tiny_data.test_float())
        int_preds = quantized.predict(images)
        assert (float_preds == int_preds).mean() > 0.9

    def test_scaled_model_quantizes(self, tiny_data):
        model = scaled_cnn(image_size=12, channels=2, kernel_size=3)
        q = QuantizedCNN.from_float(model)
        small = tiny_data.test_images[:2, :, :12, :12]
        assert q.forward_int(small).shape == (2, 10)


class TestModulusBounds:
    def test_hybrid_bound_is_modest(self, quantized):
        assert quantized.required_plain_modulus().bit_length() <= 30

    def test_square_bound_is_large(self):
        q = QuantizedCNN.from_float(
            cryptonets_cnn(np.random.default_rng(0)), weight_bits=4, input_scale=15
        )
        assert q.required_plain_modulus().bit_length() >= 30

    def test_bound_actually_bounds(self, quantized, tiny_data):
        logits = quantized.forward_int(tiny_data.test_images[:5])
        conv = quantized.blocks[0].conv_stage(
            quantized.quantize_images(tiny_data.test_images[:5])
        )
        observed = max(int(np.abs(logits).max()), int(np.abs(conv).max()))
        assert 2 * observed < quantized.required_plain_modulus()

    def test_noise_norm_counts_fc_at_any_depth(self):
        """fc's weights are plaintext multiplicands too: a two-block model
        whose fc weights outgrow every conv weight is sized at fc's norm."""
        model = deep_cnn(image_size=14, block_channels=(2, 2), rng=np.random.default_rng(7))
        q = QuantizedCNN.from_float(model, weight_bits=6, act_scale=63)
        q = dataclasses.replace(q, dense_weight=q.dense_weight * 4)
        conv_norm = max(int(np.abs(block.weight).max()) for block in q.blocks)
        fc_norm = int(np.abs(q.dense_weight).max())
        assert fc_norm > conv_norm
        pure_he, norm, additions = q.noise_profile()
        assert (pure_he, norm) == (False, fc_norm)
        assert additions == max(2 * 9, q.dense_weight.shape[0])

    def test_fits_plain_modulus(self, quantized):
        need = quantized.required_plain_modulus()
        assert quantized.fits_plain_modulus(need)
        assert not quantized.fits_plain_modulus(need - 1)

