"""SIMD hybrid pipeline: lane packing, exactness, throughput shape."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    HybridPipeline,
    PlaintextPipeline,
    SimdHybridPipeline,
    parameters_for_pipeline,
)
from repro.errors import EncodingError, PipelineError
from repro.he import modmath


@pytest.fixture(scope="module")
def simd_params(q_sigmoid):
    return parameters_for_pipeline(q_sigmoid, 256, batching=True)


@pytest.fixture(scope="module")
def simd_pipeline(q_sigmoid, simd_params):
    return SimdHybridPipeline(q_sigmoid, simd_params, seed=5)


@pytest.fixture(scope="module")
def pipelines(simd_pipeline, q_sigmoid, hybrid_params):
    """One pipeline per plaintext modulus: lanes need no batching prime."""
    return {
        "prime": simd_pipeline,
        "power_of_two": SimdHybridPipeline(q_sigmoid, hybrid_params, seed=5),
    }


def _images(models, batch):
    """``batch`` test images, the set repeated to reach a full ring."""
    images = models.dataset.test_images
    return np.resize(images, (batch, *images.shape[1:]))


class TestSimdHybrid:
    @pytest.mark.parametrize(
        "modulus, batch",
        # (prime, 5) is test_matches_plaintext_exactly.
        [("prime", 1), ("prime", 256), ("power_of_two", 1), ("power_of_two", 5),
         ("power_of_two", 256)],
    )
    def test_logits_match_plaintext(self, pipelines, q_sigmoid, models, modulus, batch):
        pipeline = pipelines[modulus]
        assert batch <= pipeline.params.poly_degree == 256
        images = _images(models, batch)
        plain = PlaintextPipeline(q_sigmoid).infer(images)
        assert np.array_equal(pipeline.infer(images).logits, plain.logits)

    def test_batch_beyond_the_ring_degree_fails_typed(self, pipelines, models):
        pipeline = pipelines["power_of_two"]
        with pytest.raises(EncodingError, match="exceed the ring degree"):
            pipeline.infer(_images(models, pipeline.params.poly_degree + 1))

    def test_rejects_wrong_rank(self, pipelines):
        with pytest.raises(PipelineError, match=r"\(B, C, H, W\)"):
            pipelines["power_of_two"].infer(np.zeros((4, 4)))

    def test_matches_plaintext_exactly(self, simd_pipeline, q_sigmoid, models):
        images = models.dataset.test_images[:5]
        plain = PlaintextPipeline(q_sigmoid).infer(images)
        result = simd_pipeline.infer(images)
        assert np.array_equal(result.logits, plain.logits)

    def test_matches_unpacked_hybrid(self, simd_pipeline, q_sigmoid, simd_params, models):
        images = models.dataset.test_images[:3]
        packed = simd_pipeline.infer(images)
        unpacked = HybridPipeline(q_sigmoid, simd_params, seed=6).infer(images)
        assert np.array_equal(packed.logits, unpacked.logits)

    def test_single_enclave_crossing(self, simd_pipeline, models):
        result = simd_pipeline.infer(models.dataset.test_images[:4])
        assert result.enclave_crossings == 1

    def test_ciphertext_count_independent_of_batch(self, simd_pipeline, models):
        small = simd_pipeline.encrypt_images(models.dataset.test_images[:1])
        large = simd_pipeline.encrypt_images(models.dataset.test_images[:8])
        assert small.data.shape == large.data.shape

    def test_per_image_time_collapses(self, simd_pipeline, q_sigmoid, simd_params, models):
        """The Section VIII claim: batch 8 images for ~the cost of 1."""
        one = simd_pipeline.infer(models.dataset.test_images[:1])
        eight = simd_pipeline.infer(models.dataset.test_images[:8])
        # Same ciphertext work modulo noise: allow 2x slack.
        assert eight.total_elapsed_s < 2 * one.total_elapsed_s

    def test_positive_noise_budget(self, simd_pipeline, models):
        result = simd_pipeline.infer(models.dataset.test_images[:2])
        assert result.noise_budget_bits > 0

    def test_rejects_square_model(self, q_square, simd_params):
        with pytest.raises(PipelineError):
            SimdHybridPipeline(q_square, simd_params)

    def test_tanh_max_variant(self, models, test_images):
        from repro.nn import QuantizedCNN, scaled_cnn, train

        model = scaled_cnn(image_size=10, channels=2, kernel_size=3,
                           activation="tanh", pool="max",
                           rng=np.random.default_rng(12))
        data = models.dataset
        train(model, data.train_float(), data.train_labels, epochs=1,
              learning_rate=0.05, seed=12)
        quantized = QuantizedCNN.from_float(model)
        params = parameters_for_pipeline(quantized, 256, batching=True)
        pipeline = SimdHybridPipeline(quantized, params, seed=12)
        plain = PlaintextPipeline(quantized).infer(test_images)
        assert np.array_equal(pipeline.infer(test_images).logits, plain.logits)


class TestBatchingParameterOption:
    def test_prime_and_congruent(self, q_sigmoid):
        params = parameters_for_pipeline(q_sigmoid, 256, batching=True)
        t = params.plain_modulus
        assert modmath.is_prime(t) and (t - 1) % (2 * 256) == 0
        assert params.plain_modulus >= q_sigmoid.required_plain_modulus()

    def test_oversized_bound_rejected(self, q_square):
        from repro.errors import ParameterError

        if q_square.required_plain_modulus() < 1 << 30:
            pytest.skip("square model unexpectedly small")
        with pytest.raises(ParameterError):
            parameters_for_pipeline(q_square, 256, batching=True)