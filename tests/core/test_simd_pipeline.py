"""SIMD hybrid pipeline: the serving flush's packed chain in-process --
exactness, the fold's ciphertext count, one crossing, and equality with an
``EdgeServer`` flush."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient
from repro.core import (
    EdgeServer,
    HybridPipeline,
    PlaintextPipeline,
    SimdHybridPipeline,
    heops,
    parameters_for_pipeline,
)
from repro.errors import PipelineError
from repro.he import modmath
from repro.sgx import AttestationVerificationService


@pytest.fixture(scope="module")
def simd_params(q_sigmoid):
    return parameters_for_pipeline(q_sigmoid, 256, batching=True)


@pytest.fixture(scope="module")
def simd_pipeline(q_sigmoid, simd_params):
    return SimdHybridPipeline(q_sigmoid, simd_params, seed=5)


@pytest.fixture(scope="module")
def pipelines(simd_pipeline, q_sigmoid, hybrid_params):
    """One pipeline per plaintext modulus: packing needs no batching prime."""
    return {
        "prime": simd_pipeline,
        "power_of_two": SimdHybridPipeline(q_sigmoid, hybrid_params, seed=5),
    }


def _images(models, batch):
    """``batch`` test images, the set repeated to reach a full ring."""
    images = models.dataset.test_images
    return np.resize(images, (batch, *images.shape[1:]))


def _per_ciphertext(pipeline):
    """``P``: the 10 x 10 test images fold two per n = 256 polynomial."""
    _, h, w = pipeline.quantized.input_shape
    return pipeline.params.poly_degree // (h * w)


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

    @pytest.mark.parametrize("modulus", ["prime", "power_of_two"])
    def test_batch_beyond_the_ring_degree_matches_plaintext(
        self, pipelines, q_sigmoid, models, modulus
    ):
        """A batch is ``ceil(B / P)`` ciphertexts, not coefficients of one:
        the ring degree bounds nothing."""
        pipeline = pipelines[modulus]
        images = _images(models, pipeline.params.poly_degree + 1)
        plain = PlaintextPipeline(q_sigmoid).infer(images)
        assert np.array_equal(pipeline.infer(images).logits, plain.logits)

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

    def test_fold_leaves_one_ciphertext_per_p_images(
        self, simd_pipeline, models, monkeypatch
    ):
        """The user sends ``(B, C)`` ciphertexts, one image each; the fold
        leaves ``ceil(B / P)`` for conv."""
        conv = heops.he_conv2d
        seen = []

        def spy(*args):
            seen.append(args[2].batch_shape)
            return conv(*args)

        monkeypatch.setattr(heops, "he_conv2d", spy)
        per = _per_ciphertext(simd_pipeline)
        for batch in (1, 2, 3, 8):
            images = models.dataset.test_images[:batch]
            channels = images.shape[1]
            assert simd_pipeline.encrypt_images(images).batch_shape == (batch, channels)
            simd_pipeline.infer(images)
            assert seen.pop() == (-(-batch // per), channels)

    def test_per_image_time_collapses(self, simd_pipeline, models):
        """The Section VIII claim, counted rather than timed: one ECALL at
        every batch, and conv's ``C x P`` tally follows ``ceil(B / P)``, not
        ``B``."""
        per = _per_ciphertext(simd_pipeline)
        filters, channels = simd_pipeline.quantized.blocks[0].weight.shape[:2]
        for batch in (1, 2, 3, 8):
            result = simd_pipeline.infer(models.dataset.test_images[:batch])
            assert result.enclave_crossings == 1
            products = result.trace.find("conv").op_counts["ct_plain_mul"]
            assert products == filters * channels * -(-batch // per)

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


class TestTheFlushChain:
    """The SIMD pipeline is an ``EdgeServer`` flush run in-process."""

    def test_matches_the_server_flush(self, q_sigmoid, simd_params, models):
        images = models.dataset.test_images[:5]
        server = EdgeServer(simd_params, seed=13)
        server.provision_model("digits", q_sigmoid)
        verifier = AttestationVerificationService()
        verifier.register_platform(server.quoting)
        session = AttestedClient(server, verifier, b"\x42" * 32).establish().session
        pending = [
            server.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
            for i in range(len(images))
        ]
        server.scheduler.drain("digits")
        assert {p.result().packed_batch for p in pending} == {len(images)}
        served = np.concatenate([session.decrypt_logits(p.result()) for p in pending])

        pipeline = SimdHybridPipeline(q_sigmoid, simd_params, seed=5)
        result = pipeline.infer(images)
        plain = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(result.logits, served)
        assert np.array_equal(served, plain)
        assert [e.name for e in result.trace.ecalls()] == ["activation_pool"]

        nodes = pipeline.graph.nodes
        assert (nodes[0].op, nodes[-1].op) == ("encrypt_image", "decrypt_result")
        flush = server._graphs["digits", "packed"]
        assert [n.signature() for n in nodes[1:-1]] == [
            n.signature() for n in flush.nodes
        ]

    def test_rejects_an_image_the_ring_cannot_hold(self, q_sigmoid):
        from repro.errors import ParameterError

        params = parameters_for_pipeline(q_sigmoid, 64)
        with pytest.raises(ParameterError, match="do not fit"):
            SimdHybridPipeline(q_sigmoid, params, seed=5)


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