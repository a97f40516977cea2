"""Regression tests for the stage-timing invariant across every pipeline.

For each pipeline variant the paper benchmarks (Encrypted, hybrid
batched/per_pixel/fake, SIMD, EdgeServer, Deep, Plaintext) we assert:

* the per-stage ``real_s + overhead_s`` totals reconcile exactly with the
  :class:`~repro.sgx.clock.SimClock` deltas across the run -- no stage
  accounting blind spots;
* enclave-crossing counts match the adversary-visible ``side_channel``
  tallies and the number of ecall spans in the trace;
* the span tree satisfies :func:`repro.obs.reconcile` (children never
  exceed their parent).

These are exactly the properties the old hand-rolled clock-delta
bookkeeping could silently violate (the per_pixel host reassembly loop did,
under-reporting the negative control's dominant cost).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient
from repro.core import (
    CryptonetsPipeline,
    HybridPipeline,
    PlaintextPipeline,
    SimdHybridPipeline,
)
from repro.obs import reconcile

REL = 1e-6


def assert_reconciles(result, clock, real_before, overhead_before, side_channel=None,
                      crossings_before=0):
    """The shared invariant: stages == root trace == clock deltas."""
    clock_real = clock.real_s - real_before
    clock_overhead = clock.overhead_s - overhead_before
    trace = result.trace
    assert trace is not None, "pipeline did not attach a trace"
    # Root span vs clock.
    assert trace.real_s == pytest.approx(clock_real, rel=REL, abs=1e-12)
    assert trace.overhead_s == pytest.approx(clock_overhead, rel=REL, abs=1e-12)
    # Stage sums vs clock (this is what hand-rolled windows got wrong: any
    # clock activity outside a stage breaks it).
    assert result.total_real_s == pytest.approx(clock_real, rel=REL, abs=1e-12)
    assert result.total_overhead_s == pytest.approx(clock_overhead, rel=REL, abs=1e-12)
    # Stages mirror the trace's stage children.
    assert [s.name for s in result.stages] == [s.name for s in trace.stages()]
    # Crossings: result == trace == side-channel tally == ecall span count.
    assert result.enclave_crossings == trace.crossings
    assert len(trace.ecalls()) == trace.crossings
    if side_channel is not None:
        assert (
            side_channel.count("ecall") - crossings_before == result.enclave_crossings
        )
    reconcile(trace)


class TestPlaintext:
    def test_reconciles(self, q_sigmoid, test_images):
        pipe = PlaintextPipeline(q_sigmoid)
        result = pipe.infer(test_images)
        assert_reconciles(result, pipe.clock, 0.0, 0.0)
        assert result.total_overhead_s == 0.0


class TestEncrypted:
    def test_reconciles(self, q_square, pure_he_params, test_images):
        pipe = CryptonetsPipeline(q_square, pure_he_params, seed=5)
        r0, o0 = pipe.clock.real_s, pipe.clock.overhead_s
        result = pipe.infer(test_images)
        assert_reconciles(result, pipe.clock, r0, o0)
        assert result.total_overhead_s == 0.0  # no enclave anywhere


@pytest.mark.parametrize("mode", ["batched", "fake"])
class TestHybridModes:
    def test_reconciles(self, q_sigmoid, hybrid_params, test_images, mode):
        pipe = HybridPipeline(q_sigmoid, hybrid_params, mode=mode, seed=5)
        r0, o0 = pipe.clock.real_s, pipe.clock.overhead_s
        before = pipe.enclave.side_channel.count("ecall")
        result = pipe.infer(test_images)
        assert_reconciles(
            result, pipe.clock, r0, o0, pipe.enclave.side_channel, before
        )
        assert result.enclave_crossings == 1

    def test_repeated_inference_still_reconciles(
        self, q_sigmoid, hybrid_params, test_images, mode
    ):
        pipe = HybridPipeline(q_sigmoid, hybrid_params, mode=mode, seed=5)
        for _ in range(2):
            r0, o0 = pipe.clock.real_s, pipe.clock.overhead_s
            before = pipe.enclave.side_channel.count("ecall")
            result = pipe.infer(test_images)
            assert_reconciles(
                result, pipe.clock, r0, o0, pipe.enclave.side_channel, before
            )


class TestPerPixel:
    @pytest.fixture(scope="class")
    def run(self, q_sigmoid, hybrid_params, models):
        pipe = HybridPipeline(q_sigmoid, hybrid_params, mode="per_pixel", seed=5)
        r0, o0 = pipe.clock.real_s, pipe.clock.overhead_s
        before = pipe.enclave.side_channel.count("ecall")
        result = pipe.infer(models.dataset.test_images[:1])
        return pipe, result, r0, o0, before

    def test_reconciles(self, run):
        pipe, result, r0, o0, before = run
        assert_reconciles(
            result, pipe.clock, r0, o0, pipe.enclave.side_channel, before
        )

    def test_host_reassembly_is_measured(self, run):
        """The fixed blind spot: the quadruple loop + np.stack reassembly
        around the per-value ECALLs must appear in the stage's real time,
        so stage real strictly exceeds the summed in-enclave compute."""
        _, result, *_ = run
        stage_span = result.trace.find("sgx_activation_pool")
        in_enclave = sum(e.real_s for e in stage_span.ecalls())
        assert stage_span.real_s > in_enclave > 0.0
        assert result.stage("sgx_activation_pool").real_s == pytest.approx(
            stage_span.real_s
        )

    def test_one_ecall_span_per_feature_value(self, run):
        _, result, *_ = run
        names = [e.name for e in result.trace.ecalls()]
        assert names.count("sigmoid") == result.enclave_crossings - 1
        assert names.count("mean_pool") == 1


class TestSimd:
    def test_reconciles(self, q_sigmoid, batching_params, test_images):
        pipe = SimdHybridPipeline(q_sigmoid, batching_params, seed=5)
        r0, o0 = pipe.clock.real_s, pipe.clock.overhead_s
        before = pipe.enclave.side_channel.count("ecall")
        result = pipe.infer(test_images)
        assert_reconciles(
            result, pipe.clock, r0, o0, pipe.enclave.side_channel, before
        )
        assert result.enclave_crossings == 1


class TestEdgeServer:
    def test_reconciles(self, q_sigmoid, hybrid_params, test_images):
        from repro.core import EdgeServer
        from repro.serve import InferenceRequest
        from repro.sgx import AttestationVerificationService

        server = EdgeServer(hybrid_params, seed=5)
        server.provision_model("digits", q_sigmoid)
        verifier = AttestationVerificationService()
        verifier.register_platform(server.quoting)
        session = AttestedClient(server, verifier, b"\x07" * 32).establish().session
        ct = session.encrypt("digits", test_images)

        clock = server.platform.clock
        r0, o0 = clock.real_s, clock.overhead_s
        before = server.enclave.side_channel.count("ecall")
        served = server.infer(InferenceRequest(model="digits", ciphertext=ct))
        assert_reconciles(
            served.timing, clock, r0, o0, server.enclave.side_channel, before
        )
        assert served.timing.enclave_crossings == 1


class TestDeep:
    def test_reconciles(self):
        from repro.core import SimdHybridPipeline, parameters_for_pipeline
        from repro.nn import QuantizedCNN, deep_cnn

        # 18x18 survives two (k=3, pool 2) blocks; weights need no training
        # for a timing-reconciliation check.  One image per polynomial needs
        # n >= 324.
        model = deep_cnn(image_size=18, block_channels=(2, 3), kernel_size=3,
                         rng=np.random.default_rng(5))
        quantized = QuantizedCNN.from_float(model, weight_bits=6, act_scale=63)
        params = parameters_for_pipeline(quantized, 512)
        pipe = SimdHybridPipeline(quantized, params, seed=5)
        r0, o0 = pipe.clock.real_s, pipe.clock.overhead_s
        before = pipe.enclave.side_channel.count("ecall")
        images = np.zeros((1, 1, 18, 18), dtype=np.uint8)
        result = pipe.infer(images)
        assert_reconciles(
            result, pipe.clock, r0, o0, pipe.enclave.side_channel, before
        )
        assert result.enclave_crossings == len(quantized.blocks)


class TestSharedPlatformTraces:
    def test_platform_tracer_retains_pipeline_traces(
        self, q_sigmoid, hybrid_params, test_images
    ):
        pipe = HybridPipeline(q_sigmoid, hybrid_params, seed=5)
        pipe.infer(test_images)
        pipe.infer(test_images)
        schemes = [t.name for t in pipe.platform.tracer.traces if t.kind == "pipeline"]
        assert schemes.count("EncryptSGX") == 2
