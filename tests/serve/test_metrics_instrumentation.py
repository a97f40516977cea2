"""Scheduler metrics: request counters, latency split, rejections."""

from __future__ import annotations

import pytest

from repro.client import AttestedClient
from repro.core import EdgeServer
from repro.errors import UnknownModelError
from repro.obs.metrics import use_registry


@pytest.fixture()
def instrumented(batching_params, q_sigmoid, verifier_for):
    """A server + session built *inside* a fresh registry, so every
    instrumented site (provisioning, serving, SGX, HE) writes to it."""
    with use_registry() as reg:
        srv = EdgeServer(batching_params, seed=13)
        srv.provision_model("digits", q_sigmoid)
        session = AttestedClient(srv, verifier_for(srv), b"\x42" * 32).establish().session
        yield reg, srv, session


def _serve(srv, session, models, count):
    images = models.dataset.test_images
    for i in range(count):
        srv.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
    srv.scheduler.drain("digits")


class TestServeInstrumentation:
    def test_request_counter_and_latency_phases(self, instrumented, models):
        reg, srv, session = instrumented
        _serve(srv, session, models, 3)
        flat = reg.collect().flat()
        assert flat['repro_serve_requests_total{model="digits"}'] == 3.0
        # One latency observation per request and per phase; queue wait and
        # compute are separate series under the same family.
        for phase in ("queue", "compute"):
            key = f'repro_serve_request_latency_seconds_count{{model="digits",phase="{phase}"}}'
            assert flat[key] == 3.0
        compute_sum = flat[
            'repro_serve_request_latency_seconds_sum{model="digits",phase="compute"}'
        ]
        assert compute_sum > 0.0

    def test_batch_occupancy_histogram(self, instrumented, models):
        reg, srv, session = instrumented
        _serve(srv, session, models, 2)
        snapshot = reg.collect()
        family = snapshot.family("repro_serve_batch_occupancy_ratio")
        assert family is not None
        (sample,) = family["samples"]
        assert sample["count"] == 1  # one flush
        assert 0.0 < sample["sum"] <= 1.0  # fill fraction of one flush

    def test_queue_depth_gauge_returns_to_zero(self, instrumented, models):
        reg, srv, session = instrumented
        _serve(srv, session, models, 2)
        assert reg.collect().flat()["repro_serve_queue_depth"] == 0.0

    def test_unknown_model_rejection_counted(self, instrumented, models):
        reg, srv, session = instrumented
        with pytest.raises(UnknownModelError):
            srv.scheduler.submit(
                "nope", session.encrypt("digits", models.dataset.test_images[:1])
            )
        flat = reg.collect().flat()
        assert flat['repro_serve_rejected_total{reason="unknown_model"}'] == 1.0

    def test_sgx_and_he_families_populated(self, instrumented, models):
        reg, srv, session = instrumented
        _serve(srv, session, models, 2)
        flat = reg.collect().flat()
        assert flat['repro_sgx_ecall_total{ecall="activation_pool"}'] == 1.0
        assert flat['repro_he_noise_budget_bits{layer="conv",model="digits"}'] > 0.0
        assert 'repro_he_noise_budget_bits{layer="fc",model="digits"}' not in flat
