"""Serving loop: continuous batching, admission control, priorities,
eviction, determinism, and bit-identity through the shared flush path."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import EdgeServer, PlaintextPipeline
from repro.errors import (
    DeadlineEvictedError,
    KeyMismatchError,
    OverloadedError,
    QueueFullError,
    ServeError,
)
from repro.serve import (
    LoopConfig,
    ServeConfig,
    ServiceTimeModel,
    ServingLoop,
    poisson_trace,
)

from .conftest import per_pixel_ct

#: Flush model used throughout: 4 ms fixed + 0.5 ms per image.
MODEL = ServiceTimeModel(base_s=4e-3, per_image_s=5e-4)


def make_loop(batching_params, q_sigmoid, session_for, *, max_batch=4, **cfg):
    srv = EdgeServer(
        batching_params, seed=13, serve_config=ServeConfig(max_batch=max_batch)
    )
    srv.provision_model("digits", q_sigmoid)
    session = session_for(srv)
    cfg.setdefault("service_model", MODEL)
    loop = ServingLoop(srv, LoopConfig(**cfg))
    return loop, session


class TestServiceTimeModel:
    def test_two_fields_and_the_linear_formula(self):
        """The model is a fixed cost plus a per-image slope and nothing
        else: the benchmark's ``model_flush_ratio`` divides by exactly this."""
        assert [f.name for f in dataclasses.fields(ServiceTimeModel)] == [
            "base_s", "per_image_s",
        ]
        for k in (1, 8, 16):
            assert MODEL.flush_s(k) == 4e-3 + k * 5e-4

    def test_validation(self):
        with pytest.raises(ServeError):
            ServiceTimeModel(base_s=0.0)
        with pytest.raises(ServeError):
            ServiceTimeModel(per_image_s=-1e-4)


class TestContinuousBatching:
    def test_arrivals_during_service_ride_the_next_group(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """A full group flushes at t=0; arrivals landing while it is in
        flight coalesce and flush the instant the server frees up -- no
        fresh window, no external crank."""
        loop, session = make_loop(
            batching_params, q_sigmoid, session_for, max_batch=4, window_s=0.05
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        for _ in range(4):
            loop.submit("digits", ct, at_s=0.0)
        in_flight = MODEL.flush_s(4)
        for k in range(4):
            loop.submit("digits", ct, at_s=in_flight * (k + 1) / 5)
        loop.run()
        assert loop.stats.flushes == 2
        first, second = loop.flush_log
        assert first["images"] == 4 and first["occupancy"] == 1.0
        assert second["images"] == 4
        # Continuous: the second flush starts exactly when the first ends.
        assert second["started_at_s"] == pytest.approx(first["done_at_s"])
        assert all(t.served for t in loop.tickets)

    def test_idle_loop_flushes_on_coalescing_deadline(
        self, batching_params, q_sigmoid, session_for, models
    ):
        loop, session = make_loop(
            batching_params, q_sigmoid, session_for, max_batch=8, window_s=0.02
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        t1 = loop.submit("digits", ct, at_s=0.0)
        t2 = loop.submit("digits", ct, at_s=0.005)
        loop.run()
        assert loop.stats.flushes == 1
        assert loop.flush_log[0]["started_at_s"] == pytest.approx(0.02)
        assert t1.queue_wait_s == pytest.approx(0.02)
        assert t2.queue_wait_s == pytest.approx(0.015)

    def test_bit_identical_logits_through_the_loop(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """FV arithmetic is exact: the loop's flush path may not change a
        single logit vs the plaintext integer reference."""
        loop, session = make_loop(batching_params, q_sigmoid, session_for, max_batch=4)
        images = models.dataset.test_images[:5]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        tickets = [
            loop.submit(
                "digits",
                session.encrypt("digits", images[i : i + 1]),
                at_s=0.001 * i,
            )
            for i in range(5)
        ]
        loop.run()
        for i, ticket in enumerate(tickets):
            assert np.array_equal(
                session.decrypt_logits(ticket.result()), expected[i : i + 1]
            )


class TestAdmissionControl:
    def test_overload_sheds_typed_and_bounds_the_queue(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """Arrivals past the admission SLO shed with OverloadedError; the
        wait of every *served* request stays bounded by estimate quality,
        not by how much traffic arrived."""
        loop, session = make_loop(
            batching_params,
            q_sigmoid,
            session_for,
            max_batch=2,
            window_s=0.002,
            admit_wait_slo_s=0.012,
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        tickets = [
            loop.submit("digits", ct, at_s=0.0002 * i, priority=1) for i in range(12)
        ]
        loop.run()
        shed = [t for t in tickets if isinstance(t.error, OverloadedError)]
        served = [t for t in tickets if t.served]
        assert shed and served
        assert loop.stats.shed_overload == len(shed)
        assert all(t.shed_reason == "overload" for t in shed)
        assert len(served) + len(shed) == 12
        # Shedding is what keeps the served tail bounded.
        slo = loop.config.admit_wait_slo_s
        assert all(
            t.queue_wait_s <= slo + MODEL.flush_s(loop.capacity) for t in served
        )

    def test_interactive_class_is_never_wait_shed(
        self, batching_params, q_sigmoid, session_for, models
    ):
        loop, session = make_loop(
            batching_params,
            q_sigmoid,
            session_for,
            max_batch=2,
            window_s=0.002,
            admit_wait_slo_s=0.012,
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        tickets = [
            loop.submit("digits", ct, at_s=0.0002 * i, priority=0) for i in range(12)
        ]
        loop.run()
        assert loop.stats.shed_overload == 0
        assert all(t.served for t in tickets)

    def test_full_queue_sheds_queue_full(
        self, batching_params, q_sigmoid, session_for, models
    ):
        loop, session = make_loop(
            batching_params,
            q_sigmoid,
            session_for,
            max_batch=2,
            window_s=0.05,
            max_queue_depth=3,
            admit_wait_slo_s=10.0,
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        tickets = [
            loop.submit("digits", ct, at_s=0.0001 * i, priority=2) for i in range(6)
        ]
        loop.run()
        full = [t for t in tickets if isinstance(t.error, QueueFullError)]
        assert full
        assert loop.stats.shed_queue_full == len(full)
        assert loop.stats.peak_queue_depth <= 3

    def test_interactive_evicts_under_full_queue(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """A class-0 arrival at a full queue displaces the lowest-priority,
        latest-deadline queued request instead of being shed."""
        loop, session = make_loop(
            batching_params,
            q_sigmoid,
            session_for,
            max_batch=2,
            window_s=0.05,
            max_queue_depth=2,
            admit_wait_slo_s=10.0,
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        # Fill the server: a full group flushes immediately at t=0.
        for _ in range(2):
            loop.submit("digits", ct, at_s=0.0, priority=1)
        # These two queue up behind the in-flight flush, filling the queue.
        batch = [
            loop.submit("digits", ct, at_s=0.0005 + 0.0001 * i, priority=2)
            for i in range(2)
        ]
        vip = loop.submit("digits", ct, at_s=0.001, priority=0)
        loop.run(until_s=0.002)
        evicted = [t for t in batch if isinstance(t.error, DeadlineEvictedError)]
        assert len(evicted) == 1
        assert vip.admitted
        assert loop.stats.evicted == 1
        loop.run()
        assert vip.served

    def test_malformed_request_resolves_typed_not_raises(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """Traffic conditions never raise out of the loop: a malformed
        ciphertext fails its ticket and lands in the scheduler's complete
        rejection accounting (the `malformed` reason)."""
        loop, session = make_loop(batching_params, q_sigmoid, session_for)
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        bad = loop.submit("digits", ct[0, :, :, :], at_s=0.0)
        loop.run()
        assert isinstance(bad.error, ServeError)
        assert bad.shed_reason == "rejected"
        assert loop.stats.rejected == 1
        assert loop.scheduler.stats.rejected_malformed == 1

    def test_wrong_sized_image_rejected_and_batch_mates_share_one_flush(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """A ciphertext the flush cannot fold (a wrong-sized image, in the
        per-pixel encoding the client no longer produces) is rejected at
        admission through the loop too: its ticket resolves typed, and the
        requests either side of it ride one flush with no isolation re-runs."""
        loop, session = make_loop(batching_params, q_sigmoid, session_for)
        images = models.dataset.test_images[:3]
        cts = [
            session.encrypt("digits", images[:1]),
            per_pixel_ct(session, q_sigmoid, images[1:2, :, :8, :8]),
            session.encrypt("digits", images[2:3]),
        ]
        first, bad, last = (
            loop.submit("digits", ct, at_s=0.0001 * i) for i, ct in enumerate(cts)
        )
        loop.run()
        assert isinstance(bad.error, ServeError)
        assert bad.shed_reason == "rejected"
        assert loop.scheduler.stats.rejected_malformed == 1
        assert loop.scheduler.stats.isolations == 0
        assert loop.stats.flushes == 1
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(session.decrypt_logits(first.result()), expected[:1])
        assert np.array_equal(session.decrypt_logits(last.result()), expected[2:3])

    def test_foreign_parameter_ciphertext_resolves_typed_and_loop_survives(
        self, batching_params, q_sigmoid, session_for, models, foreign_ct
    ):
        """A right-shaped ciphertext under different parameters used to
        raise KeyMismatchError (not a ServeError) out of ``run()`` with the
        arrival already popped, stranding its ticket forever.  It must
        reject typed like any malformed request, and a good request offered
        after it must still be served bit-exactly."""
        loop, session = make_loop(batching_params, q_sigmoid, session_for)
        image = models.dataset.test_images[:1]
        bad = loop.submit("digits", foreign_ct, at_s=0.0)
        good = loop.submit("digits", session.encrypt("digits", image), at_s=0.001)
        loop.run()
        assert isinstance(bad.error, ServeError)
        assert isinstance(bad.error.__cause__, KeyMismatchError)
        assert bad.shed_reason == "rejected"
        assert loop.stats.rejected == 1
        assert loop.scheduler.stats.rejected_malformed == 1
        assert all(t.done() for t in loop.tickets)
        expected = PlaintextPipeline(q_sigmoid).infer(image).logits
        assert np.array_equal(session.decrypt_logits(good.result()), expected)

    def test_submit_validates_caller_bugs_eagerly(
        self, batching_params, q_sigmoid, session_for, models
    ):
        loop, session = make_loop(batching_params, q_sigmoid, session_for)
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(ServeError):
            loop.submit("digits", ct, priority=3)
        with pytest.raises(ServeError):
            loop.submit("digits", ct, slo_deadline_s=0.0)


class TestPrioritiesAndEviction:
    def test_higher_priority_flushes_first(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """Within a backlog, slot groups fill in priority order: the batch-
        class request waits for the flush after the interactive ones."""
        loop, session = make_loop(
            batching_params,
            q_sigmoid,
            session_for,
            max_batch=2,
            window_s=0.001,
            admit_wait_slo_s=10.0,
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        # Occupy the server so the three classes queue behind one flush.
        for _ in range(2):
            loop.submit("digits", ct, at_s=0.0, priority=1)
        low = loop.submit("digits", ct, at_s=0.0003, priority=2)
        mid = loop.submit("digits", ct, at_s=0.0004, priority=1)
        high = loop.submit("digits", ct, at_s=0.0005, priority=0)
        loop.run()
        assert all(t.served for t in (low, mid, high))
        # First group: the two highest classes; the class-2 request rides
        # the second flush despite arriving first.
        assert high.completed_at_s == mid.completed_at_s
        assert low.completed_at_s > high.completed_at_s

    def test_hopeless_slo_deadline_evicts_typed(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """A queued request whose hard deadline no future flush can meet is
        evicted the moment that becomes certain, freeing its slots."""
        loop, session = make_loop(
            batching_params,
            q_sigmoid,
            session_for,
            max_batch=2,
            window_s=0.001,
            admit_wait_slo_s=10.0,
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        for _ in range(2):
            loop.submit("digits", ct, at_s=0.0)
        doomed = loop.submit("digits", ct, at_s=0.0005, slo_deadline_s=0.003)
        patient = loop.submit("digits", ct, at_s=0.0005, slo_deadline_s=10.0)
        loop.run()
        assert isinstance(doomed.error, DeadlineEvictedError)
        assert loop.stats.evicted == 1
        assert patient.served


class TestDeterminismAndReporting:
    def test_same_trace_same_report(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """The loop's virtual timeline makes the whole SLO report a pure
        function of (trace, config) -- replay and compare bit-for-bit."""
        trace = poisson_trace(23, rate_rps=300.0, duration_s=0.03, image_pool=3)
        reports = []
        for _ in range(2):
            loop, session = make_loop(
                batching_params, q_sigmoid, session_for, max_batch=4, window_s=0.005
            )
            pool = [
                session.encrypt("digits", models.dataset.test_images[i : i + 1])
                for i in range(3)
            ]
            for a in trace:
                loop.offer(a, pool[a.image_index])
            loop.run()
            reports.append(loop.report())
        assert reports[0] == reports[1]

    def test_run_until_advances_no_further(
        self, batching_params, q_sigmoid, session_for, models
    ):
        loop, session = make_loop(
            batching_params, q_sigmoid, session_for, max_batch=8, window_s=0.02
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        ticket = loop.submit("digits", ct, at_s=0.0)
        loop.run(until_s=0.01)
        assert loop.now_s == pytest.approx(0.01)
        assert not ticket.done()
        loop.run()
        assert ticket.served

    def test_report_accounts_every_ticket(
        self, batching_params, q_sigmoid, session_for, models
    ):
        loop, session = make_loop(
            batching_params,
            q_sigmoid,
            session_for,
            max_batch=2,
            window_s=0.002,
            admit_wait_slo_s=0.012,
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        for i in range(8):
            loop.submit("digits", ct, at_s=0.0002 * i, priority=1)
        loop.run()
        report = loop.report()
        assert report["arrivals"] == 8
        assert report["served"] + report["shed"] == 8
        assert report["shed_rate"] == pytest.approx(report["shed"] / 8)
        assert report["served_images"] == report["served"]
        assert 0.0 < report["occupancy_mean"] <= 1.0
        assert report["p50_queue_wait_s"] <= report["p99_queue_wait_s"]
        assert report["images_per_s"] > 0


class TestOneQueuedRecord:
    def test_loop_and_sync_intake_serve_the_same_record(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """Both front ends queue the scheduler's one request record and hand
        it to ``run_batch`` unchanged: the same three ciphertexts produce
        byte-equal encrypted logits and the same ``serve/request`` span
        attributes through ``submit``/``drain`` and through the loop."""
        from repro.he.serialize import serialize_ciphertext
        from repro.serve import PACKED_SCHEME

        images = models.dataset.test_images[:3]

        def request_attrs(srv):
            (trace,) = [t for t in srv.platform.tracer.traces if t.name == PACKED_SCHEME]
            return [
                {k: c.attrs[k] for k in ("request_id", "batch", "queue_depth_at_submit")}
                for c in trace.children
                if c.name == "serve/request"
            ]

        loop, loop_session = make_loop(
            batching_params, q_sigmoid, session_for, max_batch=4, window_s=0.01
        )
        tickets = [
            loop.submit(
                "digits", loop_session.encrypt("digits", images[i : i + 1]), at_s=0.0
            )
            for i in range(3)
        ]
        loop.run()

        srv = EdgeServer(batching_params, seed=13, serve_config=ServeConfig(max_batch=4))
        srv.provision_model("digits", q_sigmoid)
        session = session_for(srv)
        responses = [
            srv.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
            for i in range(3)
        ]
        assert srv.scheduler.drain() == 3

        for ticket, response in zip(tickets, responses):
            assert serialize_ciphertext(ticket.result().logits_ct) == (
                serialize_ciphertext(response.result().logits_ct)
            )
        assert np.array_equal(
            session.decrypt_logits(responses[1].result()),
            PlaintextPipeline(q_sigmoid).infer(images[1:2]).logits,
        )
        assert request_attrs(loop.server) == request_attrs(srv)
        assert request_attrs(srv) == [
            {"request_id": i, "batch": 1, "queue_depth_at_submit": i} for i in range(3)
        ]


class TestFlushGenerationAttribution:
    def test_isolated_reruns_keep_the_flush_generation(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """One poisoned request sends a loop flush through per-request
        isolation; every span and recorder event of that flush -- the dead
        packed pass, the isolated re-runs, the failure -- must carry the
        loop's flush generation (PR 13 bugfix: ``_isolate`` dropped it)."""
        from repro import faults
        from repro.faults import FaultPlan, FaultRule
        from repro.obs.recorder import use_recorder
        from repro.serve import PACKED_SCHEME

        loop, session = make_loop(
            batching_params, q_sigmoid, session_for, max_batch=4, window_s=0.01
        )
        images = models.dataset.test_images[:3]
        tickets = [
            loop.submit("digits", session.encrypt("digits", images[i : i + 1]), at_s=0.0)
            for i in range(3)
        ]
        # Fire 1 kills the packed flush; fire 2 kills the first request's
        # isolated re-run; the other re-runs see a spent rule.
        plan = FaultPlan(11, rules=[FaultRule(site="he.noise.decrypt", max_fires=2)])
        with use_recorder() as rec, faults.armed(plan):
            loop.run()
        assert [t.served for t in tickets] == [False, True, True]
        assert loop.stats.flushes == 1

        flush_kinds = (
            "serve.flush_start", "serve.isolation", "serve.request_failed",
            "serve.flush_done",
        )
        events = [e for e in rec.events() if e.kind in flush_kinds]
        assert [e.kind for e in events] == list(flush_kinds)
        assert [e.fields["generation"] for e in events] == [1, 1, 1, 1]

        spans = [
            span
            for trace in loop.server.platform.tracer.traces
            for span in trace.walk()
            if span.name in (PACKED_SCHEME, "serve/request")
        ]
        # The dead packed pass, three isolated re-runs (one dead), and the
        # two survivors' request spans.
        assert [s.name for s in spans].count(PACKED_SCHEME) == 4
        assert [s.name for s in spans].count("serve/request") == 2
        assert [s.attrs.get("generation") for s in spans] == [1] * len(spans)
