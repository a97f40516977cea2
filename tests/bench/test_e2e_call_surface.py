"""Guard for the wall-clock benchmark's call surface on the serving layer.

``benchmarks/e2e/workloads.py`` and ``layers.py`` (read-only for feature
PRs) construct specs and configs by keyword, call the scheduler, the loop
and the client SDK, and read a fixed set of attributes and report keys.  A
knob sweep over ``repro.serve`` can delete one of those names and still go
green in tier-1, with the benchmark dying only after the PR is handed in.
This test makes the same calls against a tiny deployment -- without
importing ``benchmarks/e2e`` -- so the break shows up here.  It is the
companion of ``test_e2e_span_targets.py``, which guards the wrapped names.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.client import AttestedClient
from repro.core import (
    CryptonetsPipeline,
    EdgeServer,
    HybridPipeline,
    PipelineSpec,
    PlaintextPipeline,
    SimdHybridPipeline,
    build_pipeline,
    parameters_for_pipeline,
    train_paper_models,
)
from repro.errors import PipelineError
from repro.serve import LoopConfig, RequestScheduler, ServingLoop, poisson_trace
from repro.sgx import AttestationVerificationService, SgxPlatform

MODEL = "digits"


def _binds(callable_, *args, **kwargs) -> None:
    inspect.signature(callable_).bind(*args, **kwargs)


@pytest.fixture(scope="module")
def models():
    return train_paper_models(
        train_size=200, test_size=40, epochs=2, image_size=10, channels=2, kernel_size=3
    )


class TestSignatures:
    """Keyword-for-keyword the calls the benchmark makes; binding only, so
    the process-wide knobs a real ``PipelineSpec`` build installs stay put
    (``build_pipeline`` takes any keyword, so its one call is made)."""

    def test_pipeline_spec(self):
        _binds(
            PipelineSpec, scheme="hybrid", poly_degree=1024, batching=True,
            max_batch=16, fleet_size=2, workers=2, graph_optimizer="off",
        )

    def test_build_pipeline(self, models):
        pipeline = build_pipeline(
            "cryptonets", models.quantized_square(), poly_degree=256, seed=7,
            graph_optimizer="off",
        )
        assert isinstance(pipeline, CryptonetsPipeline)

    @pytest.mark.parametrize("value", ["safe", "saef"])
    def test_graph_optimizer_takes_off_only(self, value):
        """``"off"`` is the retired keyword's one value, in both forms;
        anything else is refused before a model is read or an enclave
        loaded."""
        with pytest.raises(PipelineError, match="graph_optimizer"):
            PipelineSpec(scheme="hybrid", graph_optimizer=value)
        with pytest.raises(PipelineError, match="graph_optimizer"):
            build_pipeline(
                "cryptonets", object(), poly_degree=256, seed=7, graph_optimizer=value
            )
        platform = SgxPlatform()
        with pytest.raises(PipelineError, match="graph_optimizer"):
            build_pipeline("hybrid", object(), platform=platform, graph_optimizer=value)
        assert platform.clock.real_s == 0.0 and platform.tracer.traces == []

    def test_no_pipeline_takes_graph_optimizer(self):
        owners = (
            CryptonetsPipeline, HybridPipeline, SimdHybridPipeline,
            EdgeServer, EdgeServer.from_spec,
        )
        for owner in owners:
            assert "graph_optimizer" not in inspect.signature(owner).parameters

    def test_loop_config(self):
        _binds(LoopConfig, window_s=0.010, max_queue_depth=64, admit_wait_slo_s=0.030)

    def test_scheduler(self):
        _binds(RequestScheduler.submit, None, MODEL, object())
        _binds(RequestScheduler.drain, None)
        assert callable(vars(RequestScheduler)["run_batch"])

    def test_client_infer(self):
        _binds(AttestedClient.infer, None, MODEL, object(), pack=False)

    def test_loop(self):
        _binds(ServingLoop.offer, None, object(), object())
        _binds(ServingLoop.run, None)


@pytest.fixture(scope="module")
def deployment(models):
    quantized = models.quantized_sigmoid()
    server = EdgeServer(parameters_for_pipeline(quantized, 256, batching=True), seed=7)
    server.provision_model(MODEL, quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x07" * 32).establish()
    images = models.dataset.test_images[:3]
    return server, client, images, PlaintextPipeline(quantized).infer(images).logits


class TestAttributeReads:
    def test_direct_and_packed_waves(self, deployment):
        server, client, images, expected = deployment
        direct = client.infer(MODEL, images[:1], pack=False)
        assert np.array_equal(client.decrypt_logits(direct), expected[:1])

        scheduler = server.scheduler
        responses = [
            scheduler.submit(MODEL, client.encrypt(MODEL, images[i : i + 1]))
            for i in range(3)
        ]
        scheduler.drain()
        for i, response in enumerate(responses):
            assert np.array_equal(
                client.decrypt_logits(response.result()), expected[i : i + 1]
            )
        stats = scheduler.stats
        assert stats.flushes == 1 and stats.packed_images == 3
        assert 0 < stats.packed_images / stats.flushes / scheduler.capacity <= 1

    def test_loop_trace(self, deployment):
        server, client, images, expected = deployment
        pool = [client.encrypt(MODEL, images[i : i + 1]) for i in range(3)]
        loop = ServingLoop(
            server,
            LoopConfig(window_s=0.010, max_queue_depth=64, admit_wait_slo_s=0.030),
        )
        for arrival in poisson_trace(3, rate_rps=300.0, duration_s=0.02, image_pool=3):
            loop.offer(arrival, pool[arrival.image_index])
        loop.run()
        assert loop.tickets
        for ticket in loop.tickets:
            assert ticket.served
            assert np.array_equal(
                client.decrypt_logits(ticket.result()),
                expected[ticket.image_index : ticket.image_index + 1],
            )
        assert sum(
            loop.config.service_model.flush_s(f["images"]) for f in loop.flush_log
        ) > 0
        report = loop.report()
        assert {
            "flushes", "occupancy_mean", "shed", "evicted", "p99_queue_wait_s"
        } <= set(report)
        assert report["flushes"] == len(loop.flush_log)
