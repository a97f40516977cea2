"""EdgeServer facade: provisioning, sealed models, enrollment, serving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient
from repro.core import EdgeServer, PlaintextPipeline
from repro.core.server import _pack_model_payload, _unpack_model_payload
from repro.errors import PipelineError, SealingError
from repro.nn import QuantizedCNN, deep_cnn
from repro.serve import InferenceRequest
from repro.sgx import AttestationVerificationService, SgxPlatform


def _two_block_model() -> QuantizedCNN:
    model = deep_cnn(image_size=14, block_channels=(2, 3), activation="tanh",
                     pool="max", rng=np.random.default_rng(41))
    return QuantizedCNN.from_float(model, weight_bits=6, act_scale=63)


def _infer(server, model, ct, **policy):
    return server.infer(InferenceRequest(model=model, ciphertext=ct, **policy))


@pytest.fixture()
def verifier_for(request):
    def make(server):
        service = AttestationVerificationService()
        service.register_platform(server.quoting)
        return service

    return make


@pytest.fixture()
def server(hybrid_params, q_sigmoid):
    srv = EdgeServer(hybrid_params, seed=13)
    srv.provision_model("digits", q_sigmoid)
    return srv


@pytest.fixture()
def session(server, verifier_for):
    return AttestedClient(server, verifier_for(server), b"\x42" * 32).establish().session


class TestProvisioning:
    def test_models_listed(self, server):
        assert server.models() == ["digits"]

    def test_rejects_square_model(self, hybrid_params, q_square):
        srv = EdgeServer(hybrid_params, seed=13)
        with pytest.raises(PipelineError):
            srv.provision_model("cn", q_square)

    def test_rejects_two_block_model(self, hybrid_params):
        srv = EdgeServer(hybrid_params, seed=13)
        with pytest.raises(PipelineError, match="2 conv blocks"):
            srv.provision_model("deep", _two_block_model())
        assert srv.models() == []

    def test_rejects_oversized_model(self, q_sigmoid):
        import dataclasses

        from repro.core import parameters_for_pipeline

        params = parameters_for_pipeline(q_sigmoid, 256)
        tiny = dataclasses.replace(params, plain_modulus=64, name="tiny")
        srv = EdgeServer(tiny, seed=13)
        with pytest.raises(PipelineError):
            srv.provision_model("digits", q_sigmoid)

    def test_unknown_model_rejected(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(PipelineError):
            _infer(server, "faces", ct)


class TestSealedModels:
    def test_seal_restore_roundtrip(self, server, hybrid_params, q_sigmoid):
        blob = server.seal_model("digits")
        # A restarted enclave instance of the same code on the same platform:
        fresh = EdgeServer(hybrid_params, platform=server.platform, seed=14)
        assert fresh.models() == []
        name = fresh.restore_model(blob)
        assert name == "digits"
        assert fresh.models() == ["digits"]

    def test_other_platform_cannot_restore(self, server, hybrid_params):
        blob = server.seal_model("digits")
        other = EdgeServer(hybrid_params, platform=SgxPlatform(), seed=15)
        with pytest.raises(SealingError):
            other.restore_model(blob)

    def test_payload_carries_every_block(self):
        quantized = _two_block_model()
        name, restored = _unpack_model_payload(_pack_model_payload("deep", quantized))
        assert name == "deep"
        assert len(restored.blocks) == 2
        for got, want in zip(restored.blocks, quantized.blocks, strict=True):
            assert np.array_equal(got.weight, want.weight)
            assert np.array_equal(got.bias, want.bias)
            for field in ("weight_scale", "stride", "activation", "pool",
                          "pool_window", "act_scale"):
                assert getattr(got, field) == getattr(want, field)
        assert np.array_equal(restored.dense_weight, quantized.dense_weight)
        assert np.array_equal(restored.dense_bias, quantized.dense_bias)
        assert restored.dense_weight_scale == quantized.dense_weight_scale
        assert restored.input_scale == quantized.input_scale
        images = np.random.default_rng(42).random((3, 1, 14, 14))
        assert np.array_equal(restored.forward_int(images), quantized.forward_int(images))

    def test_tampered_blob_rejected(self, server):
        import dataclasses

        blob = server.seal_model("digits")
        flipped = bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:]
        with pytest.raises(SealingError):
            server.restore_model(dataclasses.replace(blob, ciphertext=flipped))


class TestServing:
    def test_end_to_end_matches_plaintext(self, server, session, q_sigmoid, models):
        images = models.dataset.test_images[:3]
        ct = session.encrypt("digits", images)
        result = _infer(server, "digits", ct)
        logits = session.decrypt_logits(result)
        expected = PlaintextPipeline(q_sigmoid).infer(images)
        assert np.array_equal(logits, expected.logits)

    def test_decrypt_returns_predictions(self, server, session, q_sigmoid, models):
        images = models.dataset.test_images[:3]
        result = _infer(server, "digits", session.encrypt("digits", images))
        predictions = session.decrypt(result)
        expected = PlaintextPipeline(q_sigmoid).infer(images)
        assert np.array_equal(predictions, expected.predictions)

    def test_server_never_sees_plaintext(self, server, session, models):
        """The returned logits are a ciphertext; only the session decrypts."""
        result = _infer(server, "digits", session.encrypt("digits", models.dataset.test_images[:1]))
        from repro.he import Ciphertext

        assert isinstance(result.logits_ct, Ciphertext)

    def test_timing_stages_present(self, server, session, models):
        result = _infer(server, "digits", session.encrypt("digits", models.dataset.test_images[:1]))
        names = [s.name for s in result.timing.stages]
        assert names == ["conv", "sgx_activation_pool"]
        assert result.timing.stage("sgx_activation_pool").overhead_s > 0

    def test_two_users_same_keys_share_service(self, server, verifier_for, models):
        """Every enrolled user of this edge node shares the service key pair
        (the enclave is the single key authority)."""
        a = AttestedClient(server, verifier_for(server), b"\x01" * 32).establish().session
        b = AttestedClient(server, verifier_for(server), b"\x02" * 32).establish().session
        images = models.dataset.test_images[:1]
        result = _infer(server, "digits", a.encrypt("digits", images))
        # User B can decrypt user A's result under this deployment model.
        assert b.decrypt(result).shape == (1,)

    def test_session_rejects_unknown_model(self, session, models):
        with pytest.raises(PipelineError):
            session.encrypt("faces", models.dataset.test_images[:1])
