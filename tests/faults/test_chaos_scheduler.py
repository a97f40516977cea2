"""Chaos against the serving layer: poisoned packed flushes must not sink
the batch, hang a response, or leave ghosts in the queue.

This is the serving half of DESIGN.md §11: `_flush_model` pops its bucket up
front and resolves *every* popped request -- recovered requests with their
logits, poisoned ones with a causal :class:`~repro.errors.RequestFailedError`
-- so ``queue_depth`` is always 0 after a flush and ``result()`` never raises
a permanent :class:`~repro.errors.ResponseNotReady`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.core import PlaintextPipeline
from repro.errors import (
    NoiseBudgetExhausted,
    RecoveryExhausted,
    RequestFailedError,
    ServeError,
)
from repro.faults import FaultPlan, FaultRule

from .conftest import chaos_seeds
from .test_chaos_pipelines import all_span_names


def submit_singles(server, session, images):
    return [
        server.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
        for i in range(len(images))
    ]


class TestPoisonedFlushIsolation:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_one_poisoned_request_does_not_sink_the_batch(
        self, server, session, q_sigmoid, models, seed
    ):
        """A fault that kills the packed pass triggers per-request isolation:
        the poisoned request fails typed, its batch-mates recover bit-exactly."""
        images = models.dataset.test_images[:3]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        responses = submit_singles(server, session, images)
        # Fire 1 kills the packed flush; fire 2 kills the first request's
        # isolated re-run; the remaining re-runs see a spent rule.
        plan = FaultPlan(seed, rules=[FaultRule(site="he.noise.decrypt", max_fires=2)])
        with faults.armed(plan):
            server.scheduler.drain()
        assert server.scheduler.queue_depth == 0
        assert all(r.done() for r in responses)
        with pytest.raises(RequestFailedError) as excinfo:
            responses[0].result()
        assert isinstance(excinfo.value.__cause__, NoiseBudgetExhausted)
        assert isinstance(excinfo.value, ServeError)
        for i in (1, 2):
            logits = session.decrypt_logits(responses[i].result())
            assert np.array_equal(logits[0], expected[i])
        stats = server.scheduler.stats
        assert stats.isolations == 1
        assert stats.failed == 1
        assert stats.served == 2
        assert "recovery/request_isolation" in all_span_names(
            server.platform.tracer
        )

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_unrecoverable_flush_fails_every_request_typed(
        self, server, session, models, seed
    ):
        """When the enclave is unrecoverable for the whole window, every
        request resolves with a typed failure -- nothing hangs."""
        images = models.dataset.test_images[:2]
        responses = submit_singles(server, session, images)
        plan = FaultPlan(
            seed,
            rules=[FaultRule(site="sgx.ecall", name="unpack_lanes", max_fires=None)],
        )
        with faults.armed(plan):
            served = server.scheduler.drain()
        assert served == 0
        assert server.scheduler.queue_depth == 0
        for response in responses:
            assert response.done()
            with pytest.raises(RequestFailedError) as excinfo:
                response.result()
            assert isinstance(excinfo.value.__cause__, RecoveryExhausted)
        assert server.scheduler.stats.failed == len(responses)

    def test_single_request_flush_fails_directly_without_rerun(
        self, server, session, models
    ):
        """A lone request's flush failure is final: no isolation re-run can
        help it, so it fails in one pass with the original cause chained."""
        response = server.scheduler.submit(
            "digits", session.encrypt("digits", models.dataset.test_images[:1])
        )
        plan = FaultPlan(0, rules=[FaultRule(site="he.noise.decrypt", max_fires=1)])
        with faults.armed(plan):
            server.scheduler.drain()
        assert plan.fires() == 1  # exactly the packed pass, no re-run
        with pytest.raises(RequestFailedError):
            response.result()
        assert server.scheduler.queue_depth == 0
        assert server.scheduler.stats.failed == 1

    def test_scheduler_keeps_serving_after_a_poisoned_flush(
        self, server, session, q_sigmoid, models
    ):
        """Regression for the PendingResponse failure path: a crashed flush
        must leave the scheduler fully operational for the next window."""
        images = models.dataset.test_images[:2]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        poisoned = server.scheduler.submit(
            "digits", session.encrypt("digits", images[:1])
        )
        with faults.armed(
            FaultPlan(0, rules=[FaultRule(site="he.noise.decrypt", max_fires=1)])
        ):
            server.scheduler.drain()
        assert poisoned.done()
        # Disarmed follow-up window: served normally, bit-exact.
        healthy = server.scheduler.submit(
            "digits", session.encrypt("digits", images[1:2])
        )
        server.scheduler.drain()
        logits = session.decrypt_logits(healthy.result())
        assert np.array_equal(logits[0], expected[1])
        assert server.scheduler.stats.served == 1
