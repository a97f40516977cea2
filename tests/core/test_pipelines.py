"""End-to-end pipeline tests: the paper's central claims in miniature.

* hybrid logits == plaintext quantized logits (no approximation loss);
* pure-HE logits == plaintext integer reference (exact FV arithmetic);
* EncryptFakeSGX computes the same results with zero SGX overhead;
* EncryptSGX(single) pays one crossing per feature value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CryptonetsPipeline,
    FloatPipeline,
    HybridPipeline,
    PlaintextPipeline,
)
from repro.errors import PipelineError
from repro.sgx import SgxPlatform


@pytest.fixture(scope="module")
def plain_result(q_sigmoid, test_images):
    return PlaintextPipeline(q_sigmoid).infer(test_images)


@pytest.fixture(scope="module")
def hybrid_result(q_sigmoid, hybrid_params, test_images):
    return HybridPipeline(q_sigmoid, hybrid_params, seed=2).infer(test_images)


class TestPlaintextPipelines:
    def test_stages_recorded(self, plain_result):
        assert [s.name for s in plain_result.stages] == [
            "quantize", "conv", "activation_pool", "fc",
        ]

    def test_no_sgx_overhead(self, plain_result):
        assert plain_result.total_overhead_s == 0.0

    def test_float_pipeline_agrees_mostly(self, models, q_sigmoid, test_images, plain_result):
        float_result = FloatPipeline(models.sigmoid).infer(test_images)
        assert float_result.logits.shape == plain_result.logits.shape


class TestHybridPipeline:
    def test_matches_plaintext_exactly(self, hybrid_result, plain_result):
        """The paper's accuracy claim: no approximation, bit-exact logits."""
        assert np.array_equal(hybrid_result.logits, plain_result.logits)

    def test_single_enclave_crossing(self, hybrid_result):
        assert hybrid_result.enclave_crossings == 1

    def test_positive_noise_budget_at_decrypt(self, hybrid_result):
        assert hybrid_result.noise_budget_bits > 0

    def test_sgx_overhead_charged(self, hybrid_result):
        assert hybrid_result.stage("sgx_activation_pool").overhead_s > 0

    def test_linear_stages_have_no_sgx_overhead(self, hybrid_result):
        assert hybrid_result.stage("conv").overhead_s == 0.0
        assert hybrid_result.stage("fc").overhead_s == 0.0

    def test_op_counts_recorded(self, hybrid_result):
        assert hybrid_result.op_counts["ct_plain_mul"] > 0
        assert hybrid_result.op_counts["ct_add"] > 0
        assert "ct_mul" not in hybrid_result.op_counts  # no square, ever

    def test_rejects_square_model(self, q_square, pure_he_params):
        with pytest.raises(PipelineError):
            HybridPipeline(q_square, pure_he_params)

    def test_rejects_undersized_modulus(self, q_sigmoid, hybrid_params):
        import dataclasses

        tiny = dataclasses.replace(hybrid_params, plain_modulus=256, name="tiny")
        with pytest.raises(PipelineError):
            HybridPipeline(q_sigmoid, tiny)

    def test_rejects_unknown_mode(self, q_sigmoid, hybrid_params):
        with pytest.raises(PipelineError):
            HybridPipeline(q_sigmoid, hybrid_params, mode="warp")


class TestHybridModes:
    @pytest.mark.parametrize("mode", ["batched", "fake"])
    def test_matches_plaintext_in_one_crossing(
        self, mode, q_sigmoid, hybrid_params, test_images, plain_result
    ):
        """With or without an enclave, the batch crosses once and the user
        decrypts the plaintext model's logits."""
        result = HybridPipeline(q_sigmoid, hybrid_params, mode=mode, seed=2).infer(
            test_images
        )
        assert np.array_equal(result.logits, plain_result.logits)
        assert result.enclave_crossings == 1


class TestFakeSgxMode:
    def test_same_logits_no_overhead(self, q_sigmoid, hybrid_params, test_images, plain_result):
        fake = HybridPipeline(q_sigmoid, hybrid_params, mode="fake", seed=2)
        result = fake.infer(test_images)
        assert np.array_equal(result.logits, plain_result.logits)
        assert result.stage("sgx_activation_pool").overhead_s == 0.0
        assert result.scheme == "EncryptFakeSGX"

    def test_faster_than_trusted(self, hybrid_result, q_sigmoid, hybrid_params, test_images):
        fake = HybridPipeline(q_sigmoid, hybrid_params, mode="fake", seed=2)
        fake_result = fake.infer(test_images)
        assert fake_result.total_overhead_s < hybrid_result.total_overhead_s


class TestPerPixelMode:
    def test_one_crossing_per_value_plus_pool(self, q_sigmoid, hybrid_params, models):
        single = HybridPipeline(q_sigmoid, hybrid_params, mode="per_pixel", seed=2)
        image = models.dataset.test_images[:1]
        result = single.infer(image)
        conv_shape = (1, q_sigmoid.blocks[0].weight.shape[0], 8, 8)  # 10-3+1=8
        expected_crossings = int(np.prod(conv_shape)) + 1  # sigmoids + final pool
        assert result.enclave_crossings == expected_crossings
        assert result.scheme == "EncryptSGX(single)"

    def test_logits_still_close_to_plaintext(self, q_sigmoid, hybrid_params, models):
        """Per-pixel differs only in the pool rounding path (float mean in
        one go vs requantized sigmoid then integer mean), so predictions
        agree even when logits wobble by a few units."""
        single = HybridPipeline(q_sigmoid, hybrid_params, mode="per_pixel", seed=2)
        image = models.dataset.test_images[:1]
        plain = PlaintextPipeline(q_sigmoid).infer(image)
        result = single.infer(image)
        scale = max(1, int(np.abs(plain.logits).max()))
        assert np.abs(result.logits - plain.logits).max() <= 0.1 * scale

    def test_massive_overhead(self, q_sigmoid, hybrid_params, models, hybrid_result):
        """The paper's negative control: per-pixel crossings dwarf batched."""
        single = HybridPipeline(q_sigmoid, hybrid_params, mode="per_pixel", seed=2)
        result = single.infer(models.dataset.test_images[:1])
        assert result.total_overhead_s > hybrid_result.total_overhead_s


class TestCryptonetsPipeline:
    @pytest.fixture(scope="class")
    def cn(self, q_square, pure_he_params):
        return CryptonetsPipeline(q_square, pure_he_params, seed=2)

    @pytest.fixture(scope="class")
    def cn_result(self, cn, test_images):
        return cn.infer(test_images)

    def test_matches_integer_reference(self, cn_result, q_square, test_images):
        expected = PlaintextPipeline(q_square).infer(test_images)
        assert np.array_equal(cn_result.logits, expected.logits)

    def test_stage_order(self, cn_result):
        assert [s.name for s in cn_result.stages] == [
            "encrypt", "conv", "square", "pool", "fc", "relinearize", "decrypt",
        ]

    def test_ct_mult_happens(self, cn_result, q_square, test_images):
        """One square per conv output, one relinearization per logit: pool
        and fc run on the size-3 squares."""
        b, _, h, w = test_images.shape
        f, _, k, _ = np.shape(q_square.blocks[0].weight)
        s = q_square.blocks[0].stride
        oh, ow = (h - k) // s + 1, (w - k) // s + 1
        classes = np.shape(q_square.dense_weight)[1]
        assert cn_result.op_counts["ct_mul"] == b * f * oh * ow
        assert cn_result.op_counts["relinearize"] == b * classes

    def test_noise_budget_survives(self, cn_result):
        assert cn_result.noise_budget_bits > 0

    def test_rejects_sigmoid_model(self, q_sigmoid, hybrid_params):
        with pytest.raises(PipelineError):
            CryptonetsPipeline(q_sigmoid, hybrid_params)

    def test_rejects_undersized_modulus(self, q_square, hybrid_params):
        # The hybrid's modest modulus cannot hold squared intermediates.
        with pytest.raises(PipelineError):
            CryptonetsPipeline(q_square, hybrid_params)


class TestHeadlineComparison:
    def test_hybrid_beats_pure_he(
        self, q_sigmoid, q_square, hybrid_params, pure_he_params, test_images
    ):
        """Fig. 8's shape: EncryptSGX total time < Encrypted total time."""
        cn = CryptonetsPipeline(q_square, pure_he_params, seed=4)
        cn_time = cn.infer(test_images).total_elapsed_s
        hybrid = HybridPipeline(q_sigmoid, hybrid_params, seed=4)
        assert hybrid.infer(test_images).total_elapsed_s < cn_time

    def test_prediction_agreement_across_pipelines(
        self, hybrid_result, plain_result, models, test_images
    ):
        from repro.nn import agreement_rate

        assert agreement_rate(hybrid_result.predictions, plain_result.predictions) == 1.0


class TestDiverseActivations:
    """Paper Section VI-C/VI-D: the enclave serves tanh and max-pool too."""

    @pytest.fixture(scope="class")
    def tanh_max_setup(self, models):
        from repro.core import parameters_for_pipeline
        from repro.nn import QuantizedCNN, scaled_cnn, train

        model = scaled_cnn(image_size=10, channels=2, kernel_size=3,
                           activation="tanh", pool="max",
                           rng=np.random.default_rng(8))
        data = models.dataset
        train(model, data.train_float(), data.train_labels, epochs=2,
              learning_rate=0.05, seed=8)
        quantized = QuantizedCNN.from_float(model)
        params = parameters_for_pipeline(quantized, 256)
        return quantized, params

    def test_tanh_max_hybrid_matches_plaintext(self, tanh_max_setup, test_images):
        quantized, params = tanh_max_setup
        plain = PlaintextPipeline(quantized).infer(test_images)
        result = HybridPipeline(quantized, params, seed=9).infer(test_images)
        assert result.scheme == "EncryptSGX"
        assert np.array_equal(result.logits, plain.logits)

    def test_per_pixel_mode_restricted_to_paper_config(self, tanh_max_setup):
        quantized, params = tanh_max_setup
        with pytest.raises(PipelineError):
            HybridPipeline(quantized, params, mode="per_pixel")

    def test_cryptonets_rejects_exact_models(self, tanh_max_setup):
        quantized, params = tanh_max_setup
        with pytest.raises(PipelineError):
            CryptonetsPipeline(quantized, params)


class TestSideChannelShape:
    def test_trace_independent_of_plaintext(self, q_sigmoid, hybrid_params, models):
        """The observable enclave trace must depend on shapes, not values."""
        img_a = models.dataset.test_images[:1]
        img_b = 255 - img_a  # same shape, completely different content
        a, b = (
            HybridPipeline(
                q_sigmoid, hybrid_params, seed=3,
                platform=SgxPlatform(platform_secret=b"\x21" * 32),
            )
            for _ in range(2)
        )
        a.infer(img_a)
        b.infer(img_b)
        assert (
            a.enclave.side_channel.trace_signature()
            == b.enclave.side_channel.trace_signature()
        )
