"""Deep (multi-block) hybrid inference: depth scalability of the framework.

A ``QuantizedCNN`` of several blocks runs on the SIMD pipeline, one conv and
one crossing per block: images are encrypted one per polynomial, so an
18 x 18 model needs n >= 324 (n = 512 here).  The scalar chains (hybrid,
CryptoNets) and the edge server take one block only."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CryptonetsPipeline,
    HybridPipeline,
    SimdHybridPipeline,
    parameters_for_pipeline,
    pure_he_modulus_bits_for_depth,
)
from repro.errors import ModelError, PipelineError
from repro.graph import ir
from repro.nn import QuantizedCNN, deep_cnn, train
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.model import Sequential


@pytest.fixture(scope="module")
def deep_setup(models):
    # 18x18 inputs survive two (k=3, pool 2) blocks: 18->16->8->6->3.
    rng = np.random.default_rng(31)
    model = deep_cnn(image_size=18, block_channels=(3, 4), kernel_size=3, rng=rng)
    data = models.dataset  # 10x10 crop -- rebuild an 18x18 crop instead
    from repro.nn import synthetic_mnist

    full = synthetic_mnist(train_size=200, test_size=40, seed=31)
    lo = (28 - 18) // 2
    images = full.train_images[:, :, lo : lo + 18, lo : lo + 18]
    test_images = full.test_images[:, :, lo : lo + 18, lo : lo + 18]
    train(model, images.astype(np.float64) / 255.0, full.train_labels,
          epochs=2, learning_rate=0.1, seed=31)
    quantized = QuantizedCNN.from_float(model, weight_bits=6, act_scale=63)
    params = parameters_for_pipeline(quantized, 512)
    return model, quantized, params, test_images


class TestDeepQuantizedCNN:
    def test_depth(self, deep_setup):
        _, quantized, _, _ = deep_setup
        assert len(quantized.blocks) == 2

    def test_forward_int_shape(self, deep_setup):
        _, quantized, _, test_images = deep_setup
        assert quantized.forward_int(test_images[:3]).shape == (3, 10)

    def test_tracks_float_predictions(self, deep_setup):
        model, quantized, _, test_images = deep_setup
        float_preds = model.predict(test_images.astype(np.float64) / 255.0)
        int_preds = quantized.predict(test_images)
        assert (float_preds == int_preds).mean() > 0.8

    def test_bound_depth_independent(self, deep_setup):
        """The defining property: a 1-block and a 2-block model of the same
        widths need the same order of plaintext modulus."""
        _, quantized, _, _ = deep_setup
        single = deep_cnn(image_size=18, block_channels=(3,), kernel_size=3,
                          rng=np.random.default_rng(32))
        q_single = QuantizedCNN.from_float(single, weight_bits=6, act_scale=63)
        ratio = quantized.required_plain_modulus() / q_single.required_plain_modulus()
        assert ratio < 8  # same ballpark, NOT the squaring a pure-HE level costs

    def test_rejects_relu_blocks(self):
        model = Sequential([
            *deep_cnn(image_size=18, block_channels=(2,)).layers[:1],
            ReLU(),
            *deep_cnn(image_size=18, block_channels=(2,)).layers[2:],
        ])
        with pytest.raises(ModelError):
            QuantizedCNN.from_float(model)

    def test_rejects_headless_model(self):
        layers = deep_cnn(image_size=18, block_channels=(2,)).layers[:-1]
        with pytest.raises(ModelError):
            QuantizedCNN.from_float(Sequential(layers))

    def test_rejects_ragged_body(self):
        good = deep_cnn(image_size=18, block_channels=(2,))
        ragged = Sequential(good.layers[:2] + [good.layers[-1]])
        with pytest.raises(ModelError):
            QuantizedCNN.from_float(ragged)

    def test_plaintext_pipeline_walks_the_blocks(self, deep_setup):
        from repro.core import PlaintextPipeline

        _, quantized, _, test_images = deep_setup
        result = PlaintextPipeline(quantized).infer(test_images[:3])
        assert np.array_equal(result.logits, quantized.forward_int(test_images[:3]))
        assert [s.name for s in result.stages] == [
            "quantize", "conv_0", "activation_pool_0", "conv_1", "activation_pool_1", "fc",
        ]

    def test_factory_rejects_collapsing_dims(self):
        with pytest.raises(ModelError):
            deep_cnn(image_size=10, block_channels=(2, 2, 2, 2))


class TestDeepHybridPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, deep_setup):
        _, quantized, params, _ = deep_setup
        return SimdHybridPipeline(quantized, params, seed=33)

    def test_matches_integer_reference(self, pipeline, deep_setup):
        _, quantized, _, test_images = deep_setup
        images = test_images[:2]
        result = pipeline.infer(images)
        assert np.array_equal(result.logits, quantized.forward_int(images))

    def test_encoded_weights_keep_their_integers(self, pipeline, deep_setup):
        """Every block's kernel polynomial holds the block's integer weights
        (negatives included) at its layout's tap offsets, and the crossing
        takes fc's integers as they are."""
        _, quantized, _, _ = deep_setup
        weights = pipeline.resources.weights
        ring = pipeline.context.ring
        p = int(ring.primes[0])
        for i, block in enumerate(quantized.blocks):
            assert (block.weight < 0).any()
            conv = weights[f"conv_{i}"]
            residues = ring.intt(conv.kernels.data)[..., 0, :]
            signed = np.where(residues > p // 2, residues - p, residues)
            taps = signed[..., conv.layout.kernel_offsets().ravel()]
            f, c = block.weight.shape[:2]
            assert np.array_equal(taps, block.weight.reshape(f, c, -1))
        fc_weight, fc_bias = weights["fc"]
        assert np.array_equal(fc_weight, quantized.dense_weight)
        assert np.array_equal(fc_bias, quantized.dense_bias)

    def test_one_crossing_per_block(self, pipeline, deep_setup, monkeypatch):
        """One ``activation_pool`` ECALL per block and no other, whatever
        the batch; each inner crossing writes the next block's images and
        only the last takes fc."""
        _, quantized, _, test_images = deep_setup
        enclave = pipeline.enclave
        takes_fc = []
        ecall = enclave.ecall

        def spy(name, *args, **kwargs):
            takes_fc.append(kwargs.get("fc") is not None)
            return ecall(name, *args, **kwargs)

        monkeypatch.setattr(enclave, "ecall", spy)
        for batch in (1, 3):
            takes_fc.clear()
            enclave.side_channel.reset()
            result = pipeline.infer(test_images[:batch])
            depth = len(quantized.blocks)
            assert result.enclave_crossings == depth
            ecalls = [e[1] for e in enclave.side_channel.trace_signature() if e[0] == "ecall"]
            assert ecalls == ["activation_pool"] * depth
            assert takes_fc == [False] * (depth - 1) + [True]

    def test_noise_budget_positive_at_any_depth(self, pipeline, deep_setup):
        _, _, _, test_images = deep_setup
        result = pipeline.infer(test_images[:1])
        assert result.noise_budget_bits > 0

    def test_stage_names_per_block(self, pipeline, deep_setup):
        _, quantized, _, test_images = deep_setup
        result = pipeline.infer(test_images[:1])
        names = [s.name for s in result.stages]
        for i in range(len(quantized.blocks)):
            assert f"conv_{i}" in names
            assert f"sgx_block_{i}" in names

    def test_rejects_undersized_modulus(self, deep_setup):
        import dataclasses

        _, quantized, params, _ = deep_setup
        tiny = dataclasses.replace(params, plain_modulus=64, name="tiny")
        with pytest.raises(PipelineError):
            SimdHybridPipeline(quantized, tiny)

    @pytest.mark.parametrize(
        "pipeline_type, kind",
        [(HybridPipeline, "hybrid"), (CryptonetsPipeline, "cryptonets")],
    )
    def test_scalar_chains_refuse_two_blocks(self, deep_setup, pipeline_type, kind):
        """The hybrid and CryptoNets graphs are one conv block deep: a deeper
        model is a typed refusal, from the graph builder and so from the
        pipeline at build (CryptoNets' already for its activations)."""
        _, quantized, params, _ = deep_setup
        with pytest.raises(PipelineError, match="one conv block deep"):
            ir.build_graph(kind, quantized, params)
        with pytest.raises(PipelineError):
            pipeline_type(quantized, params)


class TestDepthAsymmetry:
    def test_pure_he_modulus_grows_with_depth(self):
        bits = [pure_he_modulus_bits_for_depth(d, plain_bits=20, poly_degree=1024)
                for d in (1, 2, 3, 4)]
        assert bits == sorted(bits)
        # Each extra level costs ~ log2(t) + log2(n) + c ~= 33 bits.
        assert bits[1] - bits[0] > 25

    def test_hybrid_modulus_flat_with_depth(self, deep_setup):
        _, quantized, params, _ = deep_setup
        # The 2-block hybrid runs at the same q as the single-block preset
        # family (log2 q ~ 60-90), far below the pure-HE requirement at the
        # same depth.
        pure_bits = pure_he_modulus_bits_for_depth(
            len(quantized.blocks), params.plain_modulus.bit_length(), params.poly_degree
        )
        assert params.coeff_modulus.bit_length() < pure_bits
