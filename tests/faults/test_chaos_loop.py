"""Chaos against the serving loop: killed flushes, timer storms, and lost
completion events must never hang a ticket or corrupt a logit.

The loop's liveness contract (DESIGN.md §13): after ``run()`` drains the
event heap, every admitted request holds exactly one outcome -- a
:class:`~repro.core.server.ServedResult` or a typed error.  The chaos
here attacks all three places that contract could break: the HE flush
itself (scheduler-level isolation), the deadline timers (duplicated by a
storm), and the flush-completion event (lost, re-delivered by the
always-armed watchdog).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient
from repro import faults
from repro.core import EdgeServer, PlaintextPipeline
from repro.errors import NoiseBudgetExhausted, RequestFailedError
from repro.faults import FaultPlan, FaultRule
from repro.serve import LoopConfig, ServeConfig, ServingLoop
from repro.sgx import AttestationVerificationService

from .conftest import chaos_seeds


def make_loop(batching_params, q_sigmoid, *, max_batch=4, **cfg):
    srv = EdgeServer(
        batching_params, seed=13, serve_config=ServeConfig(max_batch=max_batch)
    )
    srv.provision_model("digits", q_sigmoid)
    verifier = AttestationVerificationService()
    verifier.register_platform(srv.quoting)
    session = AttestedClient(srv, verifier, b"\x42" * 32).establish().session
    cfg.setdefault("window_s", 0.005)
    return ServingLoop(srv, LoopConfig(**cfg)), session


class TestKilledFlushMidLoop:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_every_admitted_request_resolves_and_retry_is_bit_identical(
        self, batching_params, q_sigmoid, models, seed
    ):
        """A fault kills the packed flush mid-loop: the poisoned request
        fails typed, its batch-mates recover in place, no ticket hangs --
        and resubmitting the poisoned request yields logits bit-identical
        to the plaintext reference."""
        loop, session = make_loop(batching_params, q_sigmoid, max_batch=4)
        images = models.dataset.test_images[:3]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        cts = [session.encrypt("digits", images[i : i + 1]) for i in range(3)]
        tickets = [loop.submit("digits", cts[i], at_s=0.001 * i) for i in range(3)]
        # Fire 1 kills the packed flush; fire 2 kills the first request's
        # isolated re-run; the batch-mates' re-runs see a spent rule.
        plan = FaultPlan(seed, rules=[FaultRule(site="he.noise.decrypt", max_fires=2)])
        with faults.armed(plan):
            loop.run()
        assert all(t.done() for t in tickets)
        assert loop.queue_depth == 0 and not loop._inflight
        assert isinstance(tickets[0].error, RequestFailedError)
        assert isinstance(tickets[0].error.__cause__, NoiseBudgetExhausted)
        assert loop.stats.failed == 1 and loop.stats.served == 2
        for i in (1, 2):
            logits = session.decrypt_logits(tickets[i].result())
            assert np.array_equal(logits, expected[i : i + 1])
        # Retry of the poisoned request, fault layer healthy again: the
        # loop keeps running (it is not poisoned either) and the logits
        # come back bit-identical to plaintext.
        retry = loop.submit("digits", cts[0])
        loop.run()
        assert np.array_equal(
            session.decrypt_logits(retry.result()), expected[0:1]
        )

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_killed_flush_composes_with_lost_completion(
        self, batching_params, q_sigmoid, models, seed
    ):
        """Worst case both layers at once: the flush dies AND its completion
        event is lost.  The watchdog still delivers every typed outcome."""
        loop, session = make_loop(batching_params, q_sigmoid, max_batch=4)
        images = models.dataset.test_images[:2]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        tickets = [
            loop.submit(
                "digits", session.encrypt("digits", images[i : i + 1]), at_s=0.0
            )
            for i in range(2)
        ]
        plan = FaultPlan(
            seed,
            rules=[
                FaultRule(site="he.noise.decrypt", max_fires=2),
                FaultRule(site="serve.loop.flush_done", max_fires=1),
            ],
        )
        with faults.armed(plan):
            loop.run()
        assert all(t.done() for t in tickets)
        assert loop.stats.lost_completions == 1
        assert loop.stats.recovered_completions == 1
        assert isinstance(tickets[0].error, RequestFailedError)
        assert np.array_equal(
            session.decrypt_logits(tickets[1].result()), expected[1:2]
        )


class TestTimerStorm:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_storm_duplicates_dispatch_as_noops(
        self, batching_params, q_sigmoid, models, seed
    ):
        """``serve.loop.timer`` duplicates a deadline timer 8x: dispatch is
        idempotent, so the served outcomes -- and the whole SLO report --
        are identical to the storm-free run."""
        reports = []
        for storm in (False, True):
            loop, session = make_loop(batching_params, q_sigmoid, max_batch=8)
            ct = session.encrypt("digits", models.dataset.test_images[:1])
            tickets = [loop.submit("digits", ct, at_s=0.001 * i) for i in range(3)]
            plan = FaultPlan(
                seed,
                rules=(
                    [FaultRule(site="serve.loop.timer", max_fires=None)]
                    if storm
                    else []
                ),
            )
            with faults.armed(plan):
                loop.run()
            assert all(t.served for t in tickets)
            if storm:
                assert plan.fires("serve.loop.timer") == 3
                # Each fired storm adds 8 duplicates; all but one timer per
                # record dispatches stale.
                assert loop.stats.stale_events >= 8
            reports.append(loop.report())
        assert reports[0] == reports[1]


class TestLostCompletion:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_watchdog_redelivers_after_grace(
        self, batching_params, q_sigmoid, models, seed
    ):
        """A lost ``flush_done`` delays delivery by exactly the watchdog
        grace -- late, never lost, and the loop keeps batching afterwards."""
        grace = 0.004
        loop, session = make_loop(
            batching_params, q_sigmoid, max_batch=2, watchdog_grace_s=grace
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        first = [loop.submit("digits", ct, at_s=0.0) for _ in range(2)]
        second = [loop.submit("digits", ct, at_s=0.001) for _ in range(2)]
        plan = FaultPlan(
            seed, rules=[FaultRule(site="serve.loop.flush_done", max_fires=1)]
        )
        with faults.armed(plan):
            loop.run()
        assert loop.stats.lost_completions == 1
        assert loop.stats.recovered_completions == 1
        assert all(t.served for t in first + second)
        done_at = loop.flush_log[0]["done_at_s"]
        assert first[0].completed_at_s == pytest.approx(done_at + grace)
        # The backlog flush rides the watchdog's continuation, healthy
        # completion path restored.
        assert loop.stats.flushes == 2
        assert second[0].completed_at_s is not None
