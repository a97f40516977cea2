"""Failure injection: the system must fail loudly, not return garbage.

Corrupts ciphertexts, keys and enclave state at various pipeline points and
asserts the failure is *detected* (noise checks, encoder validation, MAC
checks) rather than silently producing wrong predictions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HybridPipeline, InferenceEnclave
from repro.errors import (
    EncodingError,
    EnclaveError,
    NoiseBudgetExhausted,
    PipelineError,
)
from repro.he import Context, Decryptor, Encryptor, KeyGenerator, ScalarEncoder
from repro.sgx import SgxPlatform


@pytest.fixture()
def pipeline(q_sigmoid, hybrid_params):
    return HybridPipeline(q_sigmoid, hybrid_params, seed=17)


def corrupt_encryptions(monkeypatch, pipeline, seed):
    """From now on each ciphertext ``pipeline``'s user encrypts arrives
    with a uniformly random body."""
    encrypt = pipeline.encryptor.encrypt
    rng = np.random.default_rng(seed)

    def corrupted(plaintext):
        ct = encrypt(plaintext)
        ct.data[..., 0, :, :] = pipeline.context.ring.sample_uniform(
            rng, *ct.batch_shape
        )
        return ct

    monkeypatch.setattr(pipeline.encryptor, "encrypt", corrupted)


class TestCorruptedCiphertexts:
    def test_stomped_body_fails_noise_check(self, hybrid_params):
        context = Context(hybrid_params)
        rng = np.random.default_rng(0)
        keys = KeyGenerator(context, rng).generate()
        encoder = ScalarEncoder(context)
        ct = Encryptor(context, keys.public, rng).encrypt(encoder.encode(5))
        ct.data[..., 0, :, :] = context.ring.sample_uniform(rng)
        with pytest.raises(NoiseBudgetExhausted):
            Decryptor(context, keys.secret).decrypt(ct, check_noise=True)

    def test_bitflip_detected_by_scalar_decode(self, hybrid_params):
        """A single residue flip scrambles the polynomial, which the scalar
        decoder flags as non-constant coefficients."""
        context = Context(hybrid_params)
        rng = np.random.default_rng(1)
        keys = KeyGenerator(context, rng).generate()
        encoder = ScalarEncoder(context)
        ct = Encryptor(context, keys.public, rng).encrypt(encoder.encode(5))
        ct.data[..., 0, 0, 10] ^= 1  # one bit, one coefficient
        with pytest.raises(EncodingError):
            encoder.decode(Decryptor(context, keys.secret).decrypt(ct))

    def test_enclave_rejects_corrupted_input(self, pipeline, models, monkeypatch):
        """Corruption *before* the enclave crossing is caught inside it."""
        corrupt_encryptions(monkeypatch, pipeline, seed=2)
        # The enclave's own decode check names the fault.
        with pytest.raises(PipelineError, match="does not hold the expected"):
            pipeline.infer(models.dataset.test_images[:1])


class TestKeyFailures:
    def test_wrong_user_decrypts_garbage_detectably(self, pipeline, models, hybrid_params):
        other = KeyGenerator(Context(hybrid_params), np.random.default_rng(3)).generate()
        wrong = Decryptor(pipeline.context, other.secret)
        ct = pipeline.encrypt_images(models.dataset.test_images[:1])
        assert wrong.invariant_noise_budget(ct) < 1.0

    def test_enclave_without_keys_refuses_service(self, hybrid_params):
        platform = SgxPlatform()
        enclave = platform.load_enclave(InferenceEnclave, hybrid_params, 4)
        with pytest.raises(PipelineError):
            enclave.ecall("generate_relin_keys")


class TestEnclaveLifecycleFailures:
    def test_destroyed_enclave_stops_serving(self, pipeline, models):
        from repro.errors import EnclaveNotInitialized

        pipeline.enclave.destroy()
        with pytest.raises(EnclaveNotInitialized):
            pipeline.infer(models.dataset.test_images[:1])

    def test_undecorated_method_not_reachable(self, pipeline):
        with pytest.raises(EnclaveError):
            pipeline.enclave.ecall("_load_crypto_state")

    def test_overflow_guard_on_reencryption(self, pipeline, models):
        """If the host lies about scales, the enclave's range guard fires
        instead of silently wrapping values mod t."""
        (crossing,) = (n for n in pipeline.graph.nodes if n.op == "crossing")
        crossing.attrs["output_scale"] = pipeline.params.plain_modulus * 10
        with pytest.raises(PipelineError, match="exceed the plaintext range"):
            pipeline.infer(models.dataset.test_images[:1])


class TestRecovery:
    def test_pipeline_survives_failed_request(
        self, q_sigmoid, hybrid_params, models, monkeypatch
    ):
        """A rejected request must not poison later requests."""
        from repro.core import PlaintextPipeline

        images = models.dataset.test_images[:1]
        expected = PlaintextPipeline(q_sigmoid).infer(images)
        pipeline = HybridPipeline(q_sigmoid, hybrid_params, seed=18)
        with monkeypatch.context() as patch:
            corrupt_encryptions(patch, pipeline, seed=5)
            with pytest.raises(PipelineError):
                pipeline.infer(images)
        good = pipeline.infer(images)
        assert np.array_equal(good.logits, expected.logits)
