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
    build_pipeline,
)
from repro.errors import PipelineError
from repro.graph import executor, ir
from repro.he.serialize import serialize_ciphertext

from .kinds import KINDS, STAGES, run_kind


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
#: and ``rng`` hashes never change.
PARENT_RECORDING = json.loads(
    Path(__file__).with_name("parent_recording.json").read_text()
)


class TestNewGraphKinds:
    """SIMD, deep, ``EdgeServer.infer`` and the packed flush run through
    the executor and reproduce the deleted chains byte for byte (logits,
    result-ciphertext bytes, op tallies, encryptor RNG position, stage
    names)."""

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
