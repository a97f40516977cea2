"""Differential equivalence harness for the graph optimizer.

The contract under test (DESIGN.md §16): at every optimizer level,
execution is *bit-identical* to the unoptimized reference — same logits,
same serialized ciphertext bytes for the encrypted logits, same
homomorphic op tallies.  Mirrors ``tests/core/test_kernel_equivalence.py``'s
recorder pattern at the pipeline level.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    CryptonetsPipeline,
    DeepHybridPipeline,
    EdgeServer,
    HybridPipeline,
    PipelineSpec,
    SimdHybridPipeline,
    build_pipeline,
)
from repro.errors import PipelineError
from repro.graph import executor, ir, optimizer
from repro.graph.optimizer import compile_graph
from repro.he.serialize import serialize_ciphertext

from .kinds import KINDS, STAGES, deep_model, run_kind, single_block_model


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


def _safe_hybrid(q_hybrid, hybrid_params, **options):
    return HybridPipeline(
        q_hybrid, hybrid_params, seed=7, graph_optimizer="safe", **options
    )


class TestHybridEquivalence:
    def test_bit_identical_to_reference(
        self, graph_optimizer, hybrid_reference, q_hybrid, hybrid_params, images
    ):
        candidate = _run(
            lambda: HybridPipeline(
                q_hybrid, hybrid_params, seed=7, graph_optimizer=graph_optimizer
            ),
            images,
        )
        _assert_bit_identical(hybrid_reference, candidate)

    def test_safe_applies_expected_passes(self, q_hybrid, hybrid_params, images):
        pipe, res, _ = _run(lambda: _safe_hybrid(q_hybrid, hybrid_params), images)
        report = pipe.graph_report
        assert set(report.applied) == {"pack_crossing"}
        assert not report.degraded
        assert res.trace.attrs["graph_opt"] == "safe"

    def test_stage_names_unchanged(self, q_hybrid, hybrid_params, images):
        _, res, _ = _run(lambda: _safe_hybrid(q_hybrid, hybrid_params), images)
        assert [s.name for s in res.stages] == [
            "encrypt",
            "conv",
            "sgx_activation_pool",
            "fc",
            "decrypt",
        ]

    def test_single_crossing_preserved(self, q_hybrid, hybrid_params, images):
        _, res, _ = _run(lambda: _safe_hybrid(q_hybrid, hybrid_params), images)
        assert res.enclave_crossings == 1

    def test_per_pixel_control_bit_identical_across_levels(
        self, q_hybrid, hybrid_params, images
    ):
        """The negative control (one value per ECALL) walks the same
        executor: ``safe`` must reproduce ``off`` and refuse to pack."""
        runs = {
            level: _run(
                lambda: HybridPipeline(
                    q_hybrid, hybrid_params, mode="per_pixel", seed=7,
                    graph_optimizer=level,
                ),
                images[:1],
            )
            for level in optimizer.LEVELS
        }
        _assert_bit_identical(runs["off"], runs["safe"])
        pipe, res, _ = runs["safe"]
        assert res.enclave_crossings > 1
        assert "one value" in pipe.graph_report.refusal("pack_crossing")

    def test_per_pixel_pack_refused(self, q_hybrid, hybrid_params):
        graph = ir.build_hybrid_graph(q_hybrid, hybrid_params, mode="per_pixel")
        _, report = compile_graph(graph, level="safe")
        assert "pack_crossing" not in report.applied
        assert "one value" in report.refusal("pack_crossing")


def _safe_cryptonets(q_he, he_params):
    return CryptonetsPipeline(q_he, he_params, seed=7, graph_optimizer="safe")


class TestCryptonetsEquivalence:
    def test_bit_identical_to_reference(
        self, graph_optimizer, he_reference, q_he, he_params, images
    ):
        candidate = _run(
            lambda: CryptonetsPipeline(
                q_he, he_params, seed=7, graph_optimizer=graph_optimizer
            ),
            images,
        )
        _assert_bit_identical(he_reference, candidate)

    def test_pack_crossing_refused_without_enclave(self, q_he, he_params, images):
        pipe, _, _ = _run(lambda: _safe_cryptonets(q_he, he_params), images)
        report = pipe.graph_report
        assert "pure-HE" in report.refusal("pack_crossing")
        assert report.applied == ()

    def test_stage_names_unchanged(self, q_he, he_params, images):
        _, res, _ = _run(lambda: _safe_cryptonets(q_he, he_params), images)
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
#: seeds (``kinds.py`` run under ``off`` at commit 4765829).  The ``packed``,
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
    names).  None of the four has a graph shape ``pack_crossing`` is
    provably exact on (lane- or image-layout crossing, multi-block): at
    ``safe`` it refuses with a reason, never applies -- which is why their
    owners, the simd and deep pipelines and the server, have no level."""

    # The suite fixture's levels, parametrized here so that the level
    # varies innermost and the ids stay ``[kind-level]``.
    @pytest.mark.parametrize("graph_optimizer", optimizer.LEVELS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_to_parent_chain(self, kind, graph_optimizer):
        fingerprint, report = run_kind(kind, graph_optimizer)
        assert fingerprint["stages"] == STAGES[kind]
        assert fingerprint == PARENT_RECORDING[kind]
        assert report.level == graph_optimizer and not report.degraded
        if graph_optimizer == "off":
            assert report.applied == () and report.refused == ()
            return
        assert report.applied == ()
        assert report.refusal("pack_crossing"), f"pack_crossing must refuse on {kind}"

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
    def test_off_is_reference(self, q_hybrid, hybrid_params):
        graph = ir.build_hybrid_graph(q_hybrid, hybrid_params)
        compiled, report = compile_graph(graph, level="off")
        assert report.level == "off"
        assert report.label == "off"
        assert compiled.signature() == graph.signature()

    def test_only_a_scalar_layout_crossing_is_rewritten(self, q_he, he_params):
        """Five kinds compile to the graph that was built (the one pass
        refuses, with a reason: ``served``'s crossing is image-layout, the
        request format's two conv-output ciphertexts per image); ``hybrid``
        differs from it in the crossing's ``packed`` / ``pack_max_batch`` and
        nothing else."""
        from repro.core import parameters_for_pipeline

        single, deep = single_block_model(), deep_model()
        params = parameters_for_pipeline(single, 256, batching=True)
        built = {
            "cryptonets": ir.build_graph("cryptonets", q_he, he_params),
            "deep": ir.build_graph("deep", deep, parameters_for_pipeline(deep, 256)),
            **{
                kind: ir.build_graph(kind, single, params)
                for kind in ("simd", "packed", "hybrid", "served")
            },
            "fake": ir.build_graph("hybrid", single, params, mode="fake"),
        }
        for kind, graph in built.items():
            compiled, report = compile_graph(graph, level="safe")
            changed = [
                (before, after)
                for before, after in zip(graph.nodes, compiled.nodes)
                if before.signature() != after.signature()
            ]
            assert compiled.node_count == graph.node_count
            if kind in ("hybrid", "fake"):
                assert report.applied == ("pack_crossing",)
                ((before, after),) = changed
                assert before.op == after.op == "crossing"
                assert after.attrs == {
                    **before.attrs,
                    "packed": True,
                    "pack_max_batch": after.attrs["pack_max_batch"],
                }
            else:
                assert changed == [] and report.refusal("pack_crossing")

    def test_level_is_the_whole_configuration(self):
        import inspect

        assert optimizer.LEVELS == ("off", "safe")
        owners = (
            compile_graph,
            HybridPipeline,
            CryptonetsPipeline,
            SimdHybridPipeline,
            DeepHybridPipeline,
        )
        for entry in owners:
            assert "passes" not in inspect.signature(entry).parameters
        assert "graph_optimizer" not in inspect.signature(EdgeServer).parameters

    def test_spec_rejects_unknown_level(self, hybrid_params):
        accepted = r"graph_optimizer must be one of \('off', 'safe'\), got"
        for refused in ("ludicrous", "aggressive"):
            with pytest.raises(PipelineError, match=accepted):
                PipelineSpec(
                    scheme="hybrid", params=hybrid_params, graph_optimizer=refused
                )

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
            CryptonetsPipeline(q_he, he_params, graph_optimizer="saef")


class TestLevelIsAPipelineValue:
    """Each pipeline compiles its graph once, at construction, at the level
    it was built with; building another pipeline never touches it."""

    def test_spec_level_is_the_built_pipelines(self, q_hybrid, hybrid_params, images):
        spec = PipelineSpec(
            scheme="hybrid", params=hybrid_params, graph_optimizer="safe"
        )
        pipe = build_pipeline(spec, q_hybrid, seed=7)
        assert pipe.graph_report.applied == ("pack_crossing",)
        assert pipe.infer(images).trace.attrs["graph_opt"] == "safe"
        default = build_pipeline(
            PipelineSpec(scheme="hybrid", params=hybrid_params), q_hybrid, seed=7
        )
        assert default.graph_report.label == "off"

    def test_build_pipeline_kwarg_is_the_built_pipelines(
        self, graph_optimizer, q_hybrid, hybrid_params, images
    ):
        pipe = build_pipeline(
            "hybrid", q_hybrid, hybrid_params, seed=7, graph_optimizer=graph_optimizer
        )
        assert pipe.graph_report.label == graph_optimizer
        assert pipe.infer(images).trace.attrs["graph_opt"] == graph_optimizer

    def test_server_spec_takes_no_level(self, hybrid_params):
        """``pack_crossing`` refuses both serving graphs, so a ``safe`` spec
        is a typed error, not a setting the server would ignore."""
        with pytest.raises(PipelineError, match="serving graphs have no rewrite"):
            EdgeServer.from_spec(
                PipelineSpec(params=hybrid_params, graph_optimizer="safe")
            )
        for level in (None, "off"):
            spec = PipelineSpec(params=hybrid_params, graph_optimizer=level)
            assert EdgeServer.from_spec(spec, seed=7).params == hybrid_params

    def test_interleaved_pipelines_keep_their_levels(
        self, q_hybrid, hybrid_params, images
    ):
        """A at ``off``, then B at ``safe``, inferences interleaved: each
        keeps its own report and label, and its logits, result bytes, op
        tallies and side-channel trace equal a solo run of the same
        pipeline."""

        def build(level):
            return build_pipeline(
                "hybrid", q_hybrid, hybrid_params, seed=7, graph_optimizer=level
            )

        def observe(pipe, res):
            return (
                res.logits.tobytes(),
                serialize_ciphertext(res.logits_ct),
                dict(pipe.counter.counts),
                pipe.enclave.side_channel.trace_signature(),
            )

        batches = (images[:1], images[1:], images)
        solo = {}
        for level in optimizer.LEVELS:
            pipe = build(level)
            solo[level] = [observe(pipe, pipe.infer(batch)) for batch in batches]
        a = build("off")
        interleaved = {"off": [observe(a, a.infer(batches[0]))]}
        b = build("safe")
        interleaved["safe"] = [observe(b, b.infer(batches[0]))]
        for batch in batches[1:]:
            for level, pipe in (("off", a), ("safe", b)):
                interleaved[level].append(observe(pipe, pipe.infer(batch)))
        assert a.graph_report.label == "off" and a.graph_report.applied == ()
        assert b.graph_report.label == "safe"
        assert b.graph_report.applied == ("pack_crossing",)
        assert interleaved == solo
