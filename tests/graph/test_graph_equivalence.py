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

from repro.core import CryptonetsPipeline, HybridPipeline
from repro.errors import PipelineError
from repro.graph import executor, ir, optimizer
from repro.graph.optimizer import compile_graph
from repro.he.serialize import serialize_ciphertext

from .kinds import KINDS, STAGES, deep_model, run_kind, single_block_model

#: The level is the whole optimizer configuration.
CONFIGS = optimizer.LEVELS


def _run(factory, images):
    pipe = factory()
    res = pipe.infer(images)
    return pipe, res, dict(pipe.counter.counts)


@pytest.fixture(scope="module")
def hybrid_reference(q_hybrid, hybrid_params, images):
    with optimizer.use("off"):
        return _run(lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images)


@pytest.fixture(scope="module")
def he_reference(q_he, he_params, images):
    with optimizer.use("off"):
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
    @pytest.mark.parametrize("level", CONFIGS)
    def test_bit_identical_to_reference(
        self, level, hybrid_reference, q_hybrid, hybrid_params, images
    ):
        with optimizer.use(level):
            candidate = _run(
                lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
            )
        _assert_bit_identical(hybrid_reference, candidate)

    def test_safe_applies_expected_passes(self, q_hybrid, hybrid_params, images):
        with optimizer.use("safe"):
            pipe, res, _ = _run(
                lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
            )
        report = pipe.graph_report
        assert set(report.applied) == {"pack_crossing"}
        assert not report.degraded
        assert res.trace.attrs["graph_opt"] == "safe"

    def test_stage_names_unchanged(self, q_hybrid, hybrid_params, images):
        with optimizer.use("safe"):
            _, res, _ = _run(
                lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
            )
        assert [s.name for s in res.stages] == [
            "encrypt",
            "conv",
            "sgx_activation_pool",
            "fc",
            "decrypt",
        ]

    def test_single_crossing_preserved(self, q_hybrid, hybrid_params, images):
        with optimizer.use("safe"):
            _, res, _ = _run(
                lambda: HybridPipeline(q_hybrid, hybrid_params, seed=7), images
            )
        assert res.enclave_crossings == 1

    def test_per_pixel_control_bit_identical_across_levels(
        self, q_hybrid, hybrid_params, images
    ):
        """The negative control (one value per ECALL) walks the same
        executor: ``safe`` must reproduce ``off`` and refuse to pack."""
        runs = {}
        for level in ("off", "safe"):
            with optimizer.use(level):
                runs[level] = _run(
                    lambda: HybridPipeline(
                        q_hybrid, hybrid_params, mode="per_pixel", seed=7
                    ),
                    images[:1],
                )
        _assert_bit_identical(runs["off"], runs["safe"])
        pipe, res, _ = runs["safe"]
        assert res.enclave_crossings > 1
        assert "one value" in pipe.graph_report.refusal("pack_crossing")

    def test_per_pixel_pack_refused(self, q_hybrid, hybrid_params):
        graph = ir.build_hybrid_graph(q_hybrid, hybrid_params, mode="per_pixel")
        _, report = compile_graph(graph, level="safe")
        assert "pack_crossing" not in report.applied
        assert "one value" in report.refusal("pack_crossing")


class TestCryptonetsEquivalence:
    @pytest.mark.parametrize("level", CONFIGS)
    def test_bit_identical_to_reference(
        self, level, he_reference, q_he, he_params, images
    ):
        with optimizer.use(level):
            candidate = _run(
                lambda: CryptonetsPipeline(q_he, he_params, seed=7), images
            )
        _assert_bit_identical(he_reference, candidate)

    def test_pack_crossing_refused_without_enclave(self, q_he, he_params, images):
        with optimizer.use("safe"):
            pipe, _, _ = _run(
                lambda: CryptonetsPipeline(q_he, he_params, seed=7), images
            )
        report = pipe.graph_report
        assert "pure-HE" in report.refusal("pack_crossing")
        assert report.applied == ()

    def test_stage_names_unchanged(self, q_he, he_params, images):
        with optimizer.use("safe"):
            _, res, _ = _run(
                lambda: CryptonetsPipeline(q_he, he_params, seed=7), images
            )
        assert [s.name for s in res.stages] == [
            "encrypt",
            "conv",
            "square",
            "relinearize",
            "pool",
            "fc",
            "decrypt",
        ]


#: What the parent commit's hand-written chains produced for the same
#: seeds (``kinds.py`` run under ``off`` at commit 4765829).  The ``packed``,
#: ``served`` and ``simd`` rows are re-recorded whenever their result
#: ciphertexts change layout, and every row's ``ciphertext`` whenever the
#: enclave's re-encryption draws its bytes differently (``a`` in the NTT
#: domain, or ``served``'s classes re-encrypted by a result crossing, whose
#: ``unpack`` stage the row gained), and ``packed``'s ``op_counts`` when its
#: flush took the direct path's chain behind the fold; their ``logits`` and
#: ``rng`` hashes never change.
PARENT_RECORDING = json.loads(
    Path(__file__).with_name("parent_recording.json").read_text()
)

class TestNewGraphKinds:
    """SIMD, deep, ``EdgeServer.infer`` and the packed flush run through
    the executor: ``off`` reproduces the deleted chains byte for byte, and
    every level reproduces ``off`` (logits, result-ciphertext bytes, op
    tallies, encryptor RNG position, stage names).  None of the four has a
    graph shape ``pack_crossing`` is provably exact on (lane- or
    image-layout crossing, multi-block): it refuses with a reason, never
    applies."""

    @pytest.mark.parametrize("level", optimizer.LEVELS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_to_parent_chain(self, kind, level):
        with optimizer.use(level):
            fingerprint, report = run_kind(kind)
        assert fingerprint["stages"] == STAGES[kind]
        assert fingerprint == PARENT_RECORDING[kind]
        assert report.level == level and not report.degraded
        if level == "off":
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
        for entry in (optimizer.use, optimizer.configure, compile_graph):
            assert "passes" not in inspect.signature(entry).parameters

    def test_env_level_is_read_strictly(self, monkeypatch):
        """``REPRO_GRAPH_OPT`` reruns of tier-1 must not go green at ``off``
        on a typo: unset / empty is the default, anything unrecognised is a
        typed error naming the variable and the accepted values -- the
        retired ``aggressive`` too, however it is selected."""
        monkeypatch.delenv("REPRO_GRAPH_OPT", raising=False)
        assert optimizer.default_level() == "off"
        monkeypatch.setenv("REPRO_GRAPH_OPT", " ")
        assert optimizer.default_level() == "off"
        monkeypatch.setenv("REPRO_GRAPH_OPT", " Safe ")
        assert optimizer.default_level() == optimizer.active_level() == "safe"
        for refused in ("saef", "aggressive"):
            monkeypatch.setenv("REPRO_GRAPH_OPT", refused)
            with pytest.raises(
                PipelineError, match=r"REPRO_GRAPH_OPT.*\('off', 'safe'\)"
            ):
                optimizer.default_level()
            with pytest.raises(PipelineError, match="REPRO_GRAPH_OPT"):
                optimizer.active_level()
        from repro.core import PipelineSpec

        accepted = r"\('off', 'safe'\), got 'aggressive'"
        with pytest.raises(PipelineError, match=accepted):
            PipelineSpec(scheme="hybrid", graph_optimizer="aggressive")
        with pytest.raises(PipelineError, match=accepted), optimizer.use("aggressive"):
            pass

    @pytest.mark.parametrize("owner", ["hybrid", "served"])
    def test_a_walk_publishes_the_env_level(
        self, owner, monkeypatch, q_hybrid, hybrid_params, images
    ):
        """With the level left to ``REPRO_GRAPH_OPT`` (no ``configure``
        call), the walk that reads it publishes the one-hot gauge, as each
        run publishes the kernel-profile gauge: a ``GraphPipeline``'s and
        ``EdgeServer.run_graph``'s alike."""
        from repro.obs.metrics import use_registry

        monkeypatch.setenv("REPRO_GRAPH_OPT", "safe")
        with use_registry() as registry:
            if owner == "hybrid":
                HybridPipeline(q_hybrid, hybrid_params, seed=7).infer(images)
            else:
                run_kind("served")
            flat = registry.collect().flat()
        assert flat['repro_graph_opt_level{level="safe"}'] == 1.0
        assert flat['repro_graph_opt_level{level="off"}'] == 0.0

    def test_spec_knob_configures_process(self, q_hybrid, hybrid_params, images):
        from repro.core import PipelineSpec, build_pipeline

        spec = PipelineSpec(
            scheme="hybrid", params=hybrid_params, graph_optimizer="safe"
        )
        pipe = build_pipeline(spec, q_hybrid, seed=7)
        assert optimizer.active_level() == "safe"
        res = pipe.infer(images)
        assert res.trace.attrs["graph_opt"] == "safe"

    def test_spec_rejects_unknown_level(self, hybrid_params):
        from repro.core import PipelineSpec
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="graph_optimizer"):
            PipelineSpec(
                scheme="hybrid", params=hybrid_params, graph_optimizer="ludicrous"
            )

    def test_build_pipeline_kwarg_configures_process(
        self, q_hybrid, hybrid_params, images
    ):
        from repro.core import build_pipeline

        pipe = build_pipeline(
            "hybrid", q_hybrid, hybrid_params, seed=7, graph_optimizer="safe"
        )
        assert optimizer.active_level() == "safe"
        res = pipe.infer(images)
        assert res.trace.attrs["graph_opt"] == "safe"

    def test_build_pipeline_kwarg_rejects_unknown_level(self, q_hybrid, hybrid_params):
        from repro.core import build_pipeline
        from repro.errors import PipelineError

        with pytest.raises(PipelineError, match="graph_optimizer"):
            build_pipeline(
                "hybrid", q_hybrid, hybrid_params, graph_optimizer="ludicrous"
            )
