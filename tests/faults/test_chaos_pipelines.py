"""Chaos suite: seeded fault plans against all four inference schemes.

The contract under test (DESIGN.md §11):

* **recoverable** plans -- bounded crash rules, EPC eviction storms --
  converge to logits *bit-identical* to the fault-free run;
* **unrecoverable** plans -- unbounded crashes, failing key provisioning --
  surface typed :class:`~repro.errors.ReproError` subclasses;
* nothing ever hangs: all timing is simulated, every test terminates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.errors import (
    AttestationError,
    NoiseBudgetExhausted,
    RecoveryExhausted,
    ReproError,
)
from repro.faults import FaultPlan, FaultRule

from .conftest import PIPELINE_KINDS, chaos_seeds

ENCLAVE_KINDS = tuple(k for k in PIPELINE_KINDS if k != "encrypted")


def collect_span_names(span, acc=None):
    acc = [] if acc is None else acc
    acc.append(span.name)
    for child in span.children:
        collect_span_names(child, acc)
    return acc


def all_span_names(tracer):
    names = []
    for trace in tracer.traces:
        collect_span_names(trace, names)
    return names


class TestRecoverableChaos:
    @pytest.mark.parametrize("seed", chaos_seeds())
    @pytest.mark.parametrize("kind", ENCLAVE_KINDS)
    def test_crash_storm_recovers_to_identical_logits(
        self, make_pipeline, baseline_logits, test_images, kind, seed
    ):
        """Bounded AEX crashes restart the enclave (sealed keys restored,
        instance re-attested) and the run converges bit-exactly."""
        expected = baseline_logits(kind)
        pipeline = make_pipeline(kind)
        plan = FaultPlan(
            seed,
            rules=[
                # Deterministic crash pair: survives any scheme's ECALL count.
                FaultRule(site="sgx.ecall", max_fires=2),
                # Seeded perturbation noise on top.
                FaultRule(
                    site="sgx.epc.touch", action="evict_all", probability=0.5, max_fires=4
                ),
            ],
        )
        with faults.armed(plan):
            result = pipeline.infer(test_images)
        assert np.array_equal(result.logits, expected)
        assert plan.fires("sgx.ecall") == 2
        assert pipeline.enclave.restarts >= 1

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_recovery_is_observable_in_traces(
        self, make_pipeline, baseline_logits, test_images, seed
    ):
        """Every injected fault and every recovery action lands in the
        platform trace as fault/ and recovery/ spans."""
        baseline_logits("batched")
        pipeline = make_pipeline("batched")
        plan = FaultPlan(seed, rules=[FaultRule(site="sgx.ecall", max_fires=1)])
        with faults.armed(plan):
            pipeline.infer(test_images)
        names = all_span_names(pipeline.platform.tracer)
        assert names.count("fault/sgx.ecall") == plan.fires("sgx.ecall") == 1
        assert names.count("recovery/enclave_restart") == 1

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_eviction_storm_only_costs_time(
        self, make_pipeline, baseline_logits, test_images, seed
    ):
        """An EPC eviction storm is a pure perturbation: identical logits,
        strictly more paging."""
        expected = baseline_logits("batched")
        pipeline = make_pipeline("batched")
        epc = pipeline.platform.epc
        before = epc.stats.evictions
        plan = FaultPlan(
            seed,
            rules=[FaultRule(site="sgx.epc.touch", action="evict_all", max_fires=None)],
        )
        with faults.armed(plan):
            result = pipeline.infer(test_images)
        assert np.array_equal(result.logits, expected)
        assert plan.fires("sgx.epc.touch") > 0
        assert epc.stats.evictions > before


class TestUnrecoverableChaos:
    @pytest.mark.parametrize("seed", chaos_seeds())
    @pytest.mark.parametrize("kind", ENCLAVE_KINDS)
    def test_unbounded_crashes_exhaust_recovery(
        self, make_pipeline, test_images, kind, seed
    ):
        pipeline = make_pipeline(kind)
        plan = FaultPlan(seed, rules=[FaultRule(site="sgx.ecall", max_fires=None)])
        with faults.armed(plan):
            with pytest.raises(RecoveryExhausted):
                pipeline.infer(test_images)
        assert issubclass(RecoveryExhausted, ReproError)

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_failing_unseal_makes_restart_unrecoverable(
        self, make_pipeline, test_images, seed
    ):
        """A crash is survivable only if the sealed key blob unseals; a
        sealing fault during restart is terminal and typed."""
        pipeline = make_pipeline("batched")
        plan = FaultPlan(
            seed,
            rules=[
                FaultRule(site="sgx.ecall", max_fires=1),
                FaultRule(site="sgx.sealing.unseal", max_fires=1),
            ],
        )
        with faults.armed(plan):
            with pytest.raises(RecoveryExhausted) as excinfo:
                pipeline.infer(test_images)
        assert "unrecoverable" in str(excinfo.value)

    @pytest.mark.parametrize("seed", chaos_seeds())
    @pytest.mark.parametrize(
        "attestation_site", ["sgx.attestation.quote", "sgx.attestation.verify"]
    )
    def test_failing_reattestation_is_terminal(
        self, make_pipeline, test_images, seed, attestation_site
    ):
        pipeline = make_pipeline("batched")
        plan = FaultPlan(
            seed,
            rules=[
                FaultRule(site="sgx.ecall", max_fires=1),
                FaultRule(site=attestation_site, max_fires=1),
            ],
        )
        with faults.armed(plan):
            with pytest.raises(RecoveryExhausted) as excinfo:
                pipeline.infer(test_images)
        assert isinstance(excinfo.value.__cause__, AttestationError)

    @pytest.mark.parametrize("kind", ["encrypted", "batched"])
    def test_noise_exhaustion_mid_pipeline_is_typed(
        self, make_pipeline, test_images, kind
    ):
        """Injected budget exhaustion surfaces the same typed error a real
        refresh-free overflow would -- never garbage logits."""
        pipeline = make_pipeline(kind)
        plan = FaultPlan(0, rules=[FaultRule(site="he.noise.decrypt", max_fires=1)])
        with faults.armed(plan):
            with pytest.raises(NoiseBudgetExhausted):
                pipeline.infer(test_images)

    def test_deliberate_destroy_is_never_resurrected(
        self, make_pipeline, test_images
    ):
        """The supervisor restarts *crashed* enclaves only: an operator
        tearing the enclave down stays torn down."""
        from repro.errors import EnclaveNotInitialized

        pipeline = make_pipeline("batched")
        pipeline.enclave.destroy()
        with pytest.raises(EnclaveNotInitialized):
            pipeline.infer(test_images)
        assert pipeline.enclave.restarts == 0
