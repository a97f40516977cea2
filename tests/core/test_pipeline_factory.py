"""The unified pipeline API: scheme resolution, factory wiring, protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CryptonetsPipeline,
    HybridPipeline,
    InferencePipeline,
    PlaintextPipeline,
    SCHEME_ALIASES,
    SimdHybridPipeline,
    build_pipeline,
    parameters_for_pipeline,
    resolve_scheme,
)
from repro.errors import PipelineError


class TestSchemeResolution:
    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("plaintext", "plaintext"),
            ("cryptonets", "cryptonets"),
            ("encrypted", "cryptonets"),
            ("hybrid", "hybrid"),
            ("encryptsgx", "hybrid"),
            ("EncryptSGX", "hybrid"),
            ("simd", "simd"),
            ("  SIMD  ", "simd"),
            ("deep", "deep"),
        ],
    )
    def test_aliases(self, alias, canonical):
        assert resolve_scheme(alias) == canonical

    def test_unknown_scheme(self):
        with pytest.raises(PipelineError):
            resolve_scheme("tfhe")

    def test_alias_table_targets_are_canonical(self):
        assert set(SCHEME_ALIASES.values()) <= set(SCHEME_ALIASES)


class TestFactory:
    def test_plaintext(self, q_sigmoid):
        pipeline = build_pipeline("plaintext", q_sigmoid)
        assert isinstance(pipeline, PlaintextPipeline)
        assert isinstance(pipeline, InferencePipeline)

    def test_hybrid_with_explicit_params(self, q_sigmoid, hybrid_params):
        pipeline = build_pipeline("encryptsgx", q_sigmoid, hybrid_params, seed=7)
        assert isinstance(pipeline, HybridPipeline)
        assert pipeline.scheme == "EncryptSGX"

    def test_hybrid_mode_passthrough(self, q_sigmoid, hybrid_params):
        pipeline = build_pipeline("hybrid", q_sigmoid, hybrid_params, mode="fake", seed=7)
        assert pipeline.scheme == "EncryptFakeSGX"

    def test_hybrid_bad_mode(self, q_sigmoid, hybrid_params):
        with pytest.raises(PipelineError):
            build_pipeline("hybrid", q_sigmoid, hybrid_params, mode="turbo")

    def test_cryptonets(self, q_square, pure_he_params):
        pipeline = build_pipeline("encrypted", q_square, pure_he_params, seed=7)
        assert isinstance(pipeline, CryptonetsPipeline)

    def test_simd_auto_params_support_batching(self, q_sigmoid, models):
        """Images pack under the default power-of-two modulus: the factory
        sizes the SIMD pipeline like any other, no batching prime."""
        pipeline = build_pipeline("simd", q_sigmoid, poly_degree=256, seed=7)
        assert isinstance(pipeline, SimdHybridPipeline)
        assert pipeline.params == parameters_for_pipeline(q_sigmoid, 256)
        images = models.dataset.test_images[:3]
        assert pipeline.encrypt_images(images).batch_shape == images.shape[:2]

    def test_hybrid_auto_params(self, q_sigmoid):
        pipeline = build_pipeline("hybrid", q_sigmoid, poly_degree=256, seed=7)
        assert isinstance(pipeline, HybridPipeline)

    def test_unknown_option_rejected(self, q_sigmoid, hybrid_params):
        with pytest.raises(PipelineError):
            build_pipeline("hybrid", q_sigmoid, hybrid_params, turbo=True)

    def test_option_for_wrong_scheme_rejected(self, q_sigmoid):
        with pytest.raises(PipelineError):
            build_pipeline("plaintext", q_sigmoid, mode="batched")


class TestProtocol:
    def test_all_pipelines_satisfy_protocol(self, q_sigmoid, q_square, hybrid_params, pure_he_params):
        pipelines = [
            build_pipeline("plaintext", q_sigmoid),
            build_pipeline("hybrid", q_sigmoid, hybrid_params, seed=7),
            build_pipeline("cryptonets", q_square, pure_he_params, seed=7),
            build_pipeline("simd", q_sigmoid, seed=7, poly_degree=256),
        ]
        for pipeline in pipelines:
            assert isinstance(pipeline, InferencePipeline)
            assert isinstance(pipeline.scheme, str)

    def test_plaintext_encrypt_images_is_quantization(self, q_sigmoid, models):
        images = models.dataset.test_images[:2]
        pipeline = build_pipeline("plaintext", q_sigmoid)
        assert np.array_equal(
            pipeline.encrypt_images(images), q_sigmoid.quantize_images(images)
        )

    def test_factory_output_infers(self, q_sigmoid, models):
        images = models.dataset.test_images[:2]
        result = build_pipeline("plaintext", q_sigmoid).infer(images)
        assert result.logits.shape[0] == 2
