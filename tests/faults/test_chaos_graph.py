"""Chaos suite: graph-optimizer pass failures mid-compile.

The contract (DESIGN.md §16): a pass raising inside ``compile_graph``
degrades the compile to the unoptimized reference graph — a
*perturbation*, not an error.  The degraded run produces bit-identical
logits, serialized ciphertext bytes and op tallies, the report says so,
and the ``repro_graph_degradations_total`` metric counts it.  A pipeline
compiles once, at construction, so each plan is armed before the pipeline
is built.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.core import HybridPipeline
from repro.faults import FaultPlan, FaultRule
from repro.he.serialize import serialize_ciphertext
from repro.obs.metrics import use_registry

from .conftest import chaos_seeds


def _safe(q_sigmoid, hybrid_params):
    return HybridPipeline(q_sigmoid, hybrid_params, seed=17, graph_optimizer="safe")


class TestGraphPassChaos:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_pass_failure_degrades_bit_identically(
        self, q_sigmoid, hybrid_params, test_images, seed
    ):
        ref_pipe = HybridPipeline(q_sigmoid, hybrid_params, seed=17)
        ref = ref_pipe.infer(test_images)
        ref_counts = dict(ref_pipe.counter.counts)

        plan = FaultPlan(seed, rules=[FaultRule(site="graph.pass", max_fires=1)])
        with use_registry() as reg:
            with faults.armed(plan):
                pipe = _safe(q_sigmoid, hybrid_params)
            res = pipe.infer(test_images)
            flat = reg.collect().flat()

        assert plan.fires("graph.pass") == 1
        report = pipe.graph_report
        assert report.degraded
        # The one pass is the one a bare graph.pass rule faults.
        assert report.failure.startswith("pack_crossing")
        assert report.label == "safe:degraded"
        assert res.trace.attrs["graph_opt"] == "safe:degraded"

        assert np.array_equal(ref.logits, res.logits)
        assert serialize_ciphertext(ref.logits_ct) == serialize_ciphertext(
            res.logits_ct
        )
        assert dict(pipe.counter.counts) == ref_counts
        assert flat['repro_graph_degradations_total{graph_pass="pack_crossing"}'] == 1.0

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_compile_recovers_after_fault_exhausted(
        self, q_sigmoid, hybrid_params, test_images, seed
    ):
        """The degradation is per-compile: once the rule is exhausted, a
        fresh pipeline compiles the optimized graph again."""
        plan = FaultPlan(seed, rules=[FaultRule(site="graph.pass", max_fires=1)])
        with faults.armed(plan):
            degraded = _safe(q_sigmoid, hybrid_params)
            first = degraded.infer(test_images)
            healthy = _safe(q_sigmoid, hybrid_params)
            second = healthy.infer(test_images)
        assert degraded.graph_report.degraded
        assert not healthy.graph_report.degraded
        assert "pack_crossing" in healthy.graph_report.applied
        assert np.array_equal(first.logits, second.logits)

    def test_named_rule_targets_one_pass(self, q_sigmoid, hybrid_params, test_images):
        """A rule named after the one pass fires once and degrades the whole
        compile: the rewrite it interrupted is discarded, not applied."""
        plan = FaultPlan(
            11, rules=[FaultRule(site="graph.pass", name="pack_crossing", max_fires=1)]
        )
        with faults.armed(plan):
            pipe = _safe(q_sigmoid, hybrid_params)
        res = pipe.infer(test_images)
        assert plan.fires("graph.pass") == 1
        report = pipe.graph_report
        assert report.degraded
        assert report.failure.startswith("pack_crossing")
        assert report.applied == ()
        assert res.trace.attrs["graph_opt"] == "safe:degraded"

    def test_rule_naming_no_pass_never_fires(self, q_sigmoid, hybrid_params, test_images):
        """The site's ``name`` is the pass that runs: a rule naming any other
        (a retired pass included) never matches, and the compile packs."""
        plan = FaultPlan(
            11, rules=[FaultRule(site="graph.pass", name="select_parameters", max_fires=1)]
        )
        with faults.armed(plan):
            pipe = _safe(q_sigmoid, hybrid_params)
        res = pipe.infer(test_images)
        assert plan.fires("graph.pass") == 0
        report = pipe.graph_report
        assert not report.degraded and report.applied == ("pack_crossing",)
        assert res.trace.attrs["graph_opt"] == "safe"

    def test_only_safe_reaches_the_pass_site(
        self, graph_optimizer, q_sigmoid, hybrid_params, test_images
    ):
        """``off`` runs no pass, so an armed ``graph.pass`` rule never fires
        there; at ``safe`` it degrades the compile.  Either way the pipeline
        runs its level's label and the reference logits."""
        ref = HybridPipeline(q_sigmoid, hybrid_params, seed=17).infer(test_images)
        plan = FaultPlan(11, rules=[FaultRule(site="graph.pass", max_fires=1)])
        with faults.armed(plan):
            pipe = HybridPipeline(
                q_sigmoid, hybrid_params, seed=17, graph_optimizer=graph_optimizer
            )
        res = pipe.infer(test_images)
        safe = graph_optimizer == "safe"
        assert plan.fires("graph.pass") == int(safe)
        assert pipe.graph_report.degraded == safe
        assert res.trace.attrs["graph_opt"] == pipe.graph_report.label
        assert np.array_equal(ref.logits, res.logits)
