"""Production kernels vs the oracle: end-to-end bit-identity regression.

The acceptance bar for the hot-path kernel layer is not "same argmax" but
*bit-identical ciphertext bytes* at every pipeline boundary: encryption,
the homomorphic conv, the FC logits, and the decrypted values, plus
identical :class:`OperationCounter` tallies.  The reference side is the
same pipeline built over :class:`repro.he.oracle.Context`; any divergence
means a fused kernel silently changed the arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CryptonetsPipeline,
    HybridPipeline,
    PlaintextPipeline,
    heops,
    parameters_for_pipeline,
)
from repro.errors import ParameterError
from repro.he import Ciphertext, Context, Evaluator, oracle
from repro.he.polyring import AuxBasis, aux_primes
from repro.nn.quantize import QuantizedCNN, QuantizedConvBlock


def _run_hybrid(context_type, quantized, params, images):
    pipe = HybridPipeline(quantized, params, seed=7, context_type=context_type)
    result = pipe.infer(images)
    ct = pipe.encrypt_images(images)
    conv = heops.he_conv2d(pipe.evaluator, pipe.encoder, ct, pipe.conv_weights)
    return pipe, result, ct, conv


class TestHybridEquivalence:
    @pytest.fixture(scope="class")
    def runs(self, q_sigmoid, hybrid_params, test_images):
        ref = _run_hybrid(oracle.Context, q_sigmoid, hybrid_params, test_images)
        fus = _run_hybrid(Context, q_sigmoid, hybrid_params, test_images)
        return ref, fus

    def test_logits_bit_identical(self, runs):
        (_, ref, _, _), (_, fus, _, _) = runs
        assert np.array_equal(ref.logits, fus.logits)

    def test_encrypted_input_bit_identical(self, runs):
        (_, _, ref_ct, _), (_, _, fus_ct, _) = runs
        assert ref_ct.is_ntt == fus_ct.is_ntt
        assert np.array_equal(ref_ct.data, fus_ct.data)

    def test_conv_output_bit_identical(self, runs):
        (_, _, _, ref_conv), (_, _, _, fus_conv) = runs
        assert np.array_equal(ref_conv.to_ntt().data, fus_conv.to_ntt().data)

    def test_operation_tallies_identical(self, runs):
        (ref_pipe, _, _, _), (fus_pipe, _, _, _) = runs
        assert dict(ref_pipe.counter.counts) == dict(fus_pipe.counter.counts)

    def test_result_ciphertext_bit_identical(self, runs):
        (_, ref, _, _), (_, fus, _, _) = runs
        assert np.array_equal(ref.logits_ct.data, fus.logits_ct.data)



class TestDenseAndPoolEquivalence:
    def test_dense_bit_identical(self, q_sigmoid, hybrid_params, test_images):
        ref_pipe, _, ref_ct, ref_conv = _run_hybrid(
            oracle.Context, q_sigmoid, hybrid_params, test_images
        )
        fus_pipe, _, _, _ = _run_hybrid(Context, q_sigmoid, hybrid_params, test_images)
        pooled = heops.he_scaled_mean_pool(
            ref_pipe.evaluator, ref_conv, q_sigmoid.blocks[0].pool_window
        )
        ref_dense = heops.he_dense(
            ref_pipe.evaluator, ref_pipe.encoder, pooled, ref_pipe.dense_weights
        )
        pooled_f = heops.he_scaled_mean_pool(
            fus_pipe.evaluator, ref_conv, q_sigmoid.blocks[0].pool_window
        )
        fus_dense = heops.he_dense(
            fus_pipe.evaluator, fus_pipe.encoder, pooled_f, fus_pipe.dense_weights
        )
        assert np.array_equal(pooled.to_ntt().data, pooled_f.to_ntt().data)
        assert np.array_equal(ref_dense.to_ntt().data, fus_dense.to_ntt().data)

    def test_conv_scalar_kernel_recovered(self, q_sigmoid, hybrid_params, test_images):
        pipe, _, _, _ = _run_hybrid(Context, q_sigmoid, hybrid_params, test_images)
        # Quantized CNN weights are scalar encodings, so the fused layers
        # must have recovered the signed integer fast path.
        assert pipe.conv_weights.weight_taps is not None
        assert pipe.dense_weights.weight_matrix is not None
        f, c, kh, kw = q_sigmoid.blocks[0].weight.shape
        assert pipe.conv_weights.weight_taps.shape == (f, c * kh * kw)


def _square_model_with_wide_fc():
    """A 4 x 4 square model whose one fc weight of 2^28 makes ``||L||_1 =
    2^30``: past what a basis sized for one product holds."""
    rng = np.random.default_rng(5)
    block = QuantizedConvBlock(
        weight=rng.integers(-2, 3, size=(1, 1, 3, 3)),
        bias=np.array([1]),
        weight_scale=4.0,
        stride=1,
        activation="square",
        pool="scaled_mean",
        pool_window=2,
        act_scale=15,
    )
    return QuantizedCNN(
        blocks=[block],
        dense_weight=np.array([[1 << 28, -3]]),
        dense_bias=np.array([2, -1]),
        dense_weight_scale=4.0,
        input_scale=15,
    )


class TestCryptonetsEquivalence:
    """The pure-HE chain keeps its squares unscaled through pool and fc and
    rounds once per logit; the oracle does the same in Python ints."""

    @pytest.fixture(scope="class", params=[1, 3], ids=["batch1", "batch3"])
    def runs(self, request, models, q_square, pure_he_params):
        images = models.dataset.test_images[: request.param]
        outs = {}
        for name, context_type in (("reference", oracle.Context), ("fused", Context)):
            pipe = CryptonetsPipeline(
                q_square, pure_he_params, seed=21, context_type=context_type
            )
            outs[name] = (pipe.infer(images), dict(pipe.counter.counts))
        expected = PlaintextPipeline(q_square).infer(images).logits
        return request.param, outs, expected

    def test_result_ciphertext_bit_identical(self, runs):
        _, outs, _ = runs
        ref, fus = outs["reference"][0], outs["fused"][0]
        assert ref.logits_ct.is_ntt == fus.logits_ct.is_ntt
        assert ref.logits_ct.data.tobytes() == fus.logits_ct.data.tobytes()

    def test_logits_equal_plaintext_and_tallies(self, runs, q_square):
        batch, outs, expected = runs
        f, _, k, _ = q_square.blocks[0].weight.shape
        _, h, w = q_square.input_shape
        s = q_square.blocks[0].stride
        outputs = ((h - k) // s + 1) * ((w - k) // s + 1)
        for result, counts in outs.values():
            assert np.array_equal(result.logits, expected)
            assert counts["ct_mul"] == batch * f * outputs
            assert counts["relinearize"] == batch * expected.shape[1]
        assert outs["reference"][1] == outs["fused"][1]

    def test_logits_and_tallies_match(self, q_square, pure_he_params, test_images):
        outs = {}
        for name, context_type in (("reference", oracle.Context), ("fused", Context)):
            pipe = CryptonetsPipeline(
                q_square, pure_he_params, seed=21, context_type=context_type
            )
            outs[name] = (pipe.infer(test_images), dict(pipe.counter.counts))
        ref, fus = outs["reference"], outs["fused"]
        assert np.array_equal(ref[0].logits, fus[0].logits)
        assert ref[1] == fus[1]


class TestMixed:
    def test_square_then_oracle_relinearize_keeps_the_bytes(
        self, q_square, pure_he_params, test_images
    ):
        """The activation's two halves on different sides: a production
        (int64 RNS) square followed by an oracle (Python-int) relinearize of
        the same ciphertext equals the oracle-only bytes."""
        pipe = CryptonetsPipeline(q_square, pure_he_params, seed=21)
        ct = pipe.encrypt_images(test_images[:1])[:, :, :2, :2]
        reference = Evaluator(oracle.Context(pure_he_params))
        mixed = reference.relinearize(pipe.evaluator.square(ct), pipe._relin_keys)
        alone = Ciphertext(reference.context, ct.data, ct.is_ntt)
        expected = reference.relinearize(reference.square(alone), pipe._relin_keys)
        assert mixed.data.tobytes() == expected.data.tobytes()


class TestDeferredRescaleBound:
    """The auxiliary basis is sized from the graph's public fc weights when
    the pipeline binds; a product outside it is refused, never rounded."""

    def test_a_wide_fc_sizes_the_basis(self):
        quantized = _square_model_with_wide_fc()
        params = parameters_for_pipeline(quantized, 256)
        images = np.random.default_rng(6).random((2, 1, 4, 4))
        unsized = aux_primes(256, params.coeff_primes, params.plain_modulus)
        results = {}
        for context_type in (oracle.Context, Context):
            pipe = CryptonetsPipeline(quantized, params, seed=3, context_type=context_type)
            assert len(pipe.context.aux_basis.primes) > len(unsized)
            results[context_type] = pipe.infer(images)
        expected = PlaintextPipeline(quantized).infer(images).logits
        ref, fus = results[oracle.Context], results[Context]
        assert np.array_equal(fus.logits, expected)
        assert np.array_equal(ref.logits, expected)
        assert fus.logits_ct.data.tobytes() == ref.logits_ct.data.tobytes()

    def test_a_basis_sized_for_one_product_refuses(self):
        quantized = _square_model_with_wide_fc()
        params = parameters_for_pipeline(quantized, 256)
        pipe = CryptonetsPipeline(quantized, params, seed=3)
        pipe.context._aux_basis = AuxBasis(
            pipe.context.ring,
            params.plain_modulus,
            aux_primes(256, params.coeff_primes, params.plain_modulus),
        )
        with pytest.raises(ParameterError, match="left the auxiliary basis"):
            pipe.infer(np.random.default_rng(6).random((2, 1, 4, 4)))

    def test_a_corrupted_product_is_refused(
        self, monkeypatch, q_square, pure_he_params, test_images
    ):
        pipe = CryptonetsPipeline(q_square, pure_he_params, seed=21)
        square = heops.he_square
        k = pipe.context.ring.k

        def corrupt(evaluator, ct):
            product = square(evaluator, ct)
            product.data[..., k, :] += 1  # one auxiliary residue off by one
            return product

        monkeypatch.setattr(heops, "he_square", corrupt)
        with pytest.raises(ParameterError, match="left the auxiliary basis"):
            pipe.infer(test_images[:1])
