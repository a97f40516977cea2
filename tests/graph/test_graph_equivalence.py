"""Differential equivalence harness for the graph executor.

The contract under test (DESIGN.md §16): a walk of a graph is
*bit-identical* to the hand-written chain it replaced and to a second walk
from the same seed — same logits, same serialized ciphertext bytes for the
encrypted logits, same homomorphic op tallies.  Mirrors
``tests/core/test_kernel_equivalence.py``'s recorder pattern at the
pipeline level.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CryptonetsPipeline,
    HybridPipeline,
    PipelineSpec,
    SimdHybridPipeline,
    build_pipeline,
    heops,
    parameters_for_pipeline,
)
from repro.errors import PipelineError
from repro.graph import executor, ir
from repro.he.context import Plaintext
from repro.he.serialize import serialize_ciphertext
from repro.nn import QuantizedCNN, deep_cnn

from .kinds import KINDS, STAGES, deep_model, images_for, run_kind


def _run(factory, images):
    pipe = factory()
    res = pipe.infer(images)
    return pipe, res, dict(pipe.counter.counts)


@pytest.fixture(scope="module")
def hybrid_reference(q_hybrid, hybrid_params, images):
    return _run(lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images)


@pytest.fixture(scope="module")
def he_reference(q_he, he_params, images):
    return _run(lambda: CryptonetsPipeline(q_he, he_params, seed=7), images)


def _assert_bit_identical(reference, candidate):
    _, ref_res, ref_counts = reference
    _, res, counts = candidate
    assert np.array_equal(ref_res.logits, res.logits)
    assert serialize_ciphertext(ref_res.logits_ct) == serialize_ciphertext(
        res.logits_ct
    )
    assert ref_counts == counts


class TestHybridEquivalence:
    def test_bit_identical_to_reference(
        self, hybrid_reference, q_hybrid, hybrid_params, images
    ):
        candidate = _run(
            lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
        )
        _assert_bit_identical(hybrid_reference, candidate)

    def test_stage_names_unchanged(self, hybrid_reference):
        _, res, _ = hybrid_reference
        assert [s.name for s in res.stages] == [
            "encrypt",
            "conv",
            "sgx_activation_pool",
            "fc",
            "decrypt",
        ]

    def test_single_crossing_preserved(self, hybrid_reference):
        _, res, _ = hybrid_reference
        assert res.enclave_crossings == 1

    def test_per_pixel_control_bit_identical(self, q_hybrid, hybrid_params, images):
        """The negative control (one value per ECALL) walks the same
        executor, as deterministically."""
        first, second = (
            _run(
                lambda: HybridPipeline(
                    q_hybrid, hybrid_params, mode="per_pixel", seed=7
                ),
                images[:1],
            )
            for _ in range(2)
        )
        _assert_bit_identical(first, second)
        _, res, _ = second
        assert res.enclave_crossings > 1


    def test_interleaved_pipelines_match_their_solo_runs(
        self, q_hybrid, hybrid_params, images
    ):
        """Two pipelines in one process, inferences interleaved: each keeps
        its logits, result bytes, op tallies and side-channel trace equal
        to a solo run of the same pipeline."""

        def build(seed):
            return HybridPipeline(q_hybrid, hybrid_params, seed=seed)

        def observe(pipe, res):
            return (
                res.logits.tobytes(),
                serialize_ciphertext(res.logits_ct),
                dict(pipe.counter.counts),
                pipe.enclave.side_channel.trace_signature(),
            )

        batches = (images[:1], images[1:], images)
        solo = {}
        for seed in (7, 8):
            pipe = build(seed)
            solo[seed] = [observe(pipe, pipe.infer(batch)) for batch in batches]
        pipes = {seed: build(seed) for seed in (7, 8)}
        interleaved = {seed: [] for seed in pipes}
        for batch in batches:
            for seed, pipe in pipes.items():
                interleaved[seed].append(observe(pipe, pipe.infer(batch)))
        assert interleaved == solo


class TestCryptonetsEquivalence:
    def test_bit_identical_to_reference(self, he_reference, q_he, he_params, images):
        candidate = _run(lambda: CryptonetsPipeline(q_he, he_params, seed=7), images)
        _assert_bit_identical(he_reference, candidate)

    def test_stage_names_unchanged(self, he_reference):
        _, res, _ = he_reference
        assert [s.name for s in res.stages] == [
            "encrypt",
            "conv",
            "square",
            "pool",
            "fc",
            "relinearize",
            "decrypt",
        ]


#: What the parent commit's hand-written chains produced for the same
#: seeds (``kinds.py`` run at commit 4765829).  The ``packed``,
#: ``served`` and ``simd`` rows are re-recorded whenever their result
#: ciphertexts change layout, and every row's ``ciphertext`` whenever the
#: enclave's re-encryption draws its bytes differently (``a`` in the NTT
#: domain, or ``served``'s classes re-encrypted by a result crossing), and
#: ``packed``'s ``op_counts`` when its flush took the direct path's chain
#: behind the fold.  The ``served`` and ``packed`` rows moved again when fc
#: moved into the activation crossing: their ``fc`` and ``unpack`` stages
#: and fc's op tallies left, and the enclave now draws one re-encryption per
#: image instead of two, so their ciphertext bytes changed.  Their ``logits``
#: and ``rng`` hashes never change.  The ``simd`` row moved when that kind
#: took the flush's chain (encrypt in the served request format, fold, conv,
#: one crossing that computes fc, decrypt the results): its stages, op
#: tallies and ciphertext changed, and so did its ``rng``, because the user
#: encrypts one polynomial per image channel; its ``logits`` did not.  The
#: ``deep`` row moved the same way when the deep hybrid took that chain
#: (one ``simd`` graph over its blocks): stages, op tallies, ciphertext and
#: ``rng``, never ``logits``.  The ``cryptonets`` row was recorded at the
#: parent of that change, before any of its edits.
PARENT_RECORDING = json.loads(
    Path(__file__).with_name("parent_recording.json").read_text()
)


class TestNewGraphKinds:
    """SIMD, deep, ``EdgeServer.infer``, the packed flush and the pure-HE
    chain run through the executor and reproduce their recorded runs byte
    for byte (logits, result-ciphertext bytes, op tallies, encryptor RNG
    position, stage names)."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_to_parent_chain(self, kind):
        fingerprint = run_kind(kind)
        assert fingerprint["stages"] == STAGES[kind]
        assert fingerprint == PARENT_RECORDING[kind]

    def test_unregistered_op_is_rejected(self, q_hybrid, hybrid_params):
        graph = ir.build_served_graph(q_hybrid, hybrid_params)
        graph.nodes.insert(0, ir.GraphNode("teleport", "teleport"))
        env = executor.Resources(tracer=None, evaluator=None, encoder=None, weights={})
        with pytest.raises(PipelineError, match="teleport"):
            executor.run(graph, env, images=np.zeros((1, 1)))

    def test_unknown_graph_kind_is_rejected(self, q_hybrid, hybrid_params):
        with pytest.raises(PipelineError, match="unknown graph kind"):
            ir.build_graph("quantum", q_hybrid, hybrid_params)

    def test_run_takes_exactly_one_input(self, q_hybrid, hybrid_params):
        graph = ir.build_served_graph(q_hybrid, hybrid_params)
        env = executor.Resources(tracer=None, evaluator=None, encoder=None, weights={})
        with pytest.raises(PipelineError, match="exactly one"):
            executor.run(graph, env)


class TestReportSurface:
    """``graph_optimizer`` is a retired keyword whose one value is ``"off"``;
    any other value is refused, from a spec or ``build_pipeline``, before a
    model is read, an enclave loaded or a key generated."""

    def test_spec_rejects_unknown_level(self, hybrid_params):
        accepted = r"graph_optimizer=.*the one accepted value is 'off'"
        for refused in ("ludicrous", "aggressive", "safe"):
            with pytest.raises(PipelineError, match=accepted):
                PipelineSpec(
                    scheme="hybrid", params=hybrid_params, graph_optimizer=refused
                )
        assert PipelineSpec(
            scheme="hybrid", params=hybrid_params, graph_optimizer="off"
        ).graph_optimizer == "off"

    def test_build_pipeline_kwarg_rejects_unknown_level(self, q_hybrid, hybrid_params):
        with pytest.raises(PipelineError, match="graph_optimizer"):
            build_pipeline(
                "hybrid", q_hybrid, hybrid_params, graph_optimizer="ludicrous"
            )

    def test_unknown_level_fails_before_bring_up(
        self, monkeypatch, q_hybrid, hybrid_params, q_he, he_params
    ):
        """A mistyped level costs no enclave load, ECALL or key generation."""
        from repro.core import cryptonets
        from repro.sgx import SgxPlatform

        platform = SgxPlatform()
        with pytest.raises(PipelineError, match="graph_optimizer"):
            build_pipeline(
                "hybrid", q_hybrid, hybrid_params, platform=platform,
                graph_optimizer="saef",
            )
        assert platform.clock.real_s == 0.0 and platform.tracer.traces == []

        def no_keys(*args, **kwargs):
            raise AssertionError("key generation ran before the level check")

        monkeypatch.setattr(cryptonets, "KeyGenerator", no_keys)
        with pytest.raises(PipelineError, match="graph_optimizer"):
            build_pipeline("cryptonets", q_he, he_params, graph_optimizer="saef")


class TestDeepImageChain:
    """The deep hybrid is a ``simd`` graph over several blocks: its logits
    are the integer reference's, and every block's crossing, inner or last,
    keeps the image decode's zero and range probes."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        model = deep_model()
        return SimdHybridPipeline(model, parameters_for_pipeline(model, 256), seed=7)

    def test_graph_is_the_simd_chain_over_the_blocks(self, pipeline):
        graph = pipeline.graph
        assert graph.kind == "simd"
        assert [(node.op, node.stage) for node in graph.nodes] == [
            ("encrypt_image", "encrypt"), ("fold", "pack"),
            ("conv", "conv_0"), ("crossing_image", "sgx_block_0"),
            ("conv", "conv_1"), ("crossing_image", "sgx_block_1"),
            ("decrypt_result", "decrypt"),
        ]
        inner, last = (node for node in graph.nodes if node.op == "crossing_image")
        assert inner.attrs["next_image"] and "next_image" not in last.attrs
        # Block 1 reads block 0's pooled maps: 14 -> conv 12 -> pool 6.
        assert (last.attrs["image"].height, last.attrs["image"].width) == (6, 6)

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_logits_equal_the_integer_reference(self, pipeline, batch):
        images = images_for("deep")[:batch]
        result = pipeline.infer(images)
        assert np.array_equal(result.logits, pipeline.quantized.forward_int(images))
        assert result.enclave_crossings == 2

    def test_logits_equal_the_integer_reference_at_paper_geometry(self):
        """28 x 28 images, 5 x 5 kernels, two blocks, n = 1024: block 0 holds
        one image per polynomial, block 1's 12 x 12 maps seven."""
        model = deep_cnn(
            image_size=28, block_channels=(3, 4), kernel_size=5, activation="tanh",
            pool="max", rng=np.random.default_rng(2120),
        )
        quantized = QuantizedCNN.from_float(model, weight_bits=6, act_scale=63)
        assert quantized.input_shape == (1, 28, 28)
        pipeline = SimdHybridPipeline(
            quantized, parameters_for_pipeline(quantized, 1024), seed=7
        )
        images = np.random.default_rng(2121).random((9, 1, 28, 28))
        result = pipeline.infer(images)
        assert np.array_equal(result.logits, quantized.forward_int(images))

    @pytest.mark.parametrize("block", [0, 1])
    @pytest.mark.parametrize("probe", ["stray", "range"])
    def test_tampered_block_output_is_a_typed_pipeline_error(
        self, pipeline, block, probe, monkeypatch
    ):
        """A non-zero coefficient past what block ``block``'s images reach,
        or a conv output one past its bound, is refused by that block's own
        crossing -- the inner one writes the next block's images, so it
        decodes as strictly as the last."""
        conv = heops.he_conv2d
        seen = []

        def tamper(evaluator, encoder, ct, weights, folded=1):
            out = conv(evaluator, encoder, ct, weights, folded)
            if len(seen) == block:
                layout = weights.layout
                per = layout.per_ciphertext(out.context.poly_degree)
                occupied = min(folded, per)
                if probe == "stray":
                    at, value = occupied * layout.pixels + layout.spill, 1
                else:
                    at = int(layout.output_offsets()[0, 0])
                    now = pipeline.decryptor.decrypt(out).signed_coeffs()[0, 0, at]
                    value = layout.bound + 1 - now
                coeffs = np.zeros((*out.batch_shape, out.context.poly_degree), np.int64)
                coeffs[0, 0, at] = value
                out = evaluator.add_plain(out, Plaintext(out.context, coeffs))
            seen.append(block)
            return out

        monkeypatch.setattr(heops, "he_conv2d", tamper)
        message = "a coefficient no image reaches" if probe == "stray" else "conv bound"
        with pytest.raises(PipelineError, match=message):
            pipeline.infer(images_for("deep")[:3])
        assert len(seen) == block + 1
