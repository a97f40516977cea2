"""Differential equivalence harness for the graph optimizer.

The contract under test (DESIGN.md §16): for every pass, every pair-wise
pass composition, and both full portfolios, optimized execution is
*bit-identical* to the unoptimized reference — same logits, same
serialized ciphertext bytes for the encrypted logits, same homomorphic
op tallies.  Mirrors ``tests/core/test_kernel_equivalence.py``'s
recorder pattern at the pipeline level.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import CryptonetsPipeline, HybridPipeline
from repro.errors import PipelineError
from repro.graph import executor, ir, optimizer
from repro.graph.optimizer import PASS_PORTFOLIO, compile_graph
from repro.he.serialize import serialize_ciphertext

from .kinds import KINDS, STAGES, run_kind

PASS_NAMES = PASS_PORTFOLIO["safe"]

#: Every single pass, every pair-wise composition, both full portfolios.
CONFIGS = (
    [("safe", (name,)) for name in PASS_NAMES]
    + [("safe", pair) for pair in itertools.combinations(PASS_NAMES, 2)]
    + [("safe", None), ("aggressive", None)]
)


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
    @pytest.mark.parametrize("level,passes", CONFIGS)
    def test_bit_identical_to_reference(
        self, level, passes, hybrid_reference, q_hybrid, hybrid_params, images
    ):
        with optimizer.use(level, passes):
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
        assert set(report.applied) >= {
            "zero_tap",
            "pack_crossing",
            "hoist_ntt",
            "scalar_encrypt",
        }
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
    @pytest.mark.parametrize("level,passes", CONFIGS)
    def test_bit_identical_to_reference(
        self, level, passes, he_reference, q_he, he_params, images
    ):
        with optimizer.use(level, passes):
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
        assert "hoist_ntt" in report.applied  # the square INTT hoist still fires

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
#: seeds (``kinds.py`` run under ``off`` at commit 4765829).
PARENT_RECORDING = json.loads(
    Path(__file__).with_name("parent_recording.json").read_text()
)

#: Passes that are not provably exact on a kind's graph shape and must
#: therefore show up as refused-with-reason, never applied.
MUST_REFUSE = {
    "simd": {"pack_crossing", "hoist_ntt", "scalar_encrypt"},
    "deep": {"pack_crossing", "hoist_ntt"},
    "served": {"scalar_encrypt"},
    "packed": {"pack_crossing", "hoist_ntt", "scalar_encrypt"},
}


class TestNewGraphKinds:
    """SIMD, deep, ``EdgeServer.infer`` and the packed flush run through
    the executor: ``off`` reproduces the deleted chains byte for byte, and
    every level reproduces ``off`` (logits, result-ciphertext bytes, op
    tallies, encryptor RNG position, stage names)."""

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
        assert "zero_tap" in report.applied  # the optimizer does reach this path
        assert not MUST_REFUSE[kind] & set(report.applied)
        for name in MUST_REFUSE[kind]:
            assert report.refusal(name), f"{name} must refuse with a reason on {kind}"

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

    def test_aggressive_emits_parameter_advice(self, q_hybrid, hybrid_params):
        graph = ir.build_hybrid_graph(q_hybrid, hybrid_params)
        _, report = compile_graph(graph, level="aggressive")
        advice = report.parameter_advice
        assert advice is not None
        assert advice.poly_degree <= hybrid_params.poly_degree
        assert len(advice.coeff_primes) <= len(hybrid_params.coeff_primes)

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
