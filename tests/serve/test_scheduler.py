"""Request scheduler: packing correctness, queueing discipline, tracing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EdgeServer, PlaintextPipeline, parameters_for_pipeline
from repro.errors import (
    BatchTooLargeError,
    EncodingError,
    KeyMismatchError,
    PipelineError,
    QueueFullError,
    ResponseNotReady,
    ServeError,
    UnknownModelError,
)
from repro.obs import reconcile
from repro.serve import PACKED_SCHEME, InferenceRequest, RequestScheduler, ServeConfig

from .conftest import per_pixel_ct


def _infer(server, model, ct, **policy):
    return server.infer(InferenceRequest(model=model, ciphertext=ct, **policy))


class TestPackingCorrectness:
    def test_packed_matches_sequential_and_plaintext(
        self, server, session, q_sigmoid, models
    ):
        """One packed flush must be bit-exact with one-request-at-a-time
        serving and with the plaintext integer reference -- FV arithmetic is
        exact, so lane packing may not change a single logit."""
        images = models.dataset.test_images[:5]
        sequential = np.concatenate(
            [
                session.decrypt_logits(
                    _infer(server, "digits", session.encrypt("digits", images[i : i + 1]))
                )
                for i in range(len(images))
            ]
        )
        responses = [
            server.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
            for i in range(len(images))
        ]
        assert server.scheduler.drain() == len(images)
        packed = np.concatenate(
            [session.decrypt_logits(r.result()) for r in responses]
        )
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(packed, sequential)
        assert np.array_equal(packed, expected)

    def test_power_of_two_modulus_serves_packed(
        self, q_sigmoid, models, session_for
    ):
        """The flush packs into coefficients, not CRT slots, so a server
        built with ``batching=False`` serves ``pack=True`` and a 16-request
        flush with the logits of its own unpacked path."""
        params = parameters_for_pipeline(q_sigmoid, 256)  # power-of-two t
        assert params.plain_modulus & (params.plain_modulus - 1) == 0
        srv = EdgeServer(params, seed=13, serve_config=ServeConfig(max_batch=16))
        srv.provision_model("digits", q_sigmoid)
        session = session_for(srv)
        images = models.dataset.test_images[:16]
        cts = [session.encrypt("digits", images[i : i + 1]) for i in range(16)]
        direct = np.concatenate(
            [session.decrypt_logits(_infer(srv, "digits", ct, pack=False)) for ct in cts]
        )
        alone = _infer(srv, "digits", cts[0], pack=True)
        assert alone.packed_batch == 1
        assert np.array_equal(session.decrypt_logits(alone), direct[:1])
        responses = [srv.scheduler.submit("digits", ct) for ct in cts]
        assert all(r.done() for r in responses)  # the 16th submit flushed
        assert srv.scheduler.stats.flushes == 2
        packed = np.concatenate([session.decrypt_logits(r.result()) for r in responses])
        assert np.array_equal(packed, direct)
        assert np.array_equal(packed, PlaintextPipeline(q_sigmoid).infer(images).logits)

    def test_responses_keep_submit_order_per_request(
        self, server, session, q_sigmoid, models
    ):
        """Each response carries *its own* image's logits: distinct images
        submitted concurrently come back unswapped, in submission order."""
        images = models.dataset.test_images[:4]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        responses = [
            server.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
            for i in range(len(images))
        ]
        server.scheduler.drain("digits")
        for i, response in enumerate(responses):
            assert response.request_id == i
            logits = session.decrypt_logits(response.result())
            assert np.array_equal(logits[0], expected[i])

    def test_multi_image_requests_pack_with_singles(
        self, server, session, q_sigmoid, models
    ):
        images = models.dataset.test_images[:5]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        r_pair = server.scheduler.submit("digits", session.encrypt("digits", images[:2]))
        r_triple = server.scheduler.submit("digits", session.encrypt("digits", images[2:5]))
        server.scheduler.drain()
        assert np.array_equal(session.decrypt_logits(r_pair.result()), expected[:2])
        assert np.array_equal(session.decrypt_logits(r_triple.result()), expected[2:5])
        assert r_pair.result().packed_batch == 5
        assert r_triple.result().packed_batch == 5


    def test_flush_folds_the_requests_where_they_lie(
        self, server, session, models, monkeypatch
    ):
        """A 16-request flush hands the pack fold the very arrays the users
        submitted: between ``submit`` and the fold nothing batch-sized is
        allocated, and the fold itself allocates its
        output and one output row's two working arrays -- never the stacked
        batch."""
        import tracemalloc

        from repro.graph import executor

        cts = [
            session.encrypt("digits", models.dataset.test_images[i : i + 1])
            for i in range(16)
        ]
        seen = {}
        fold = executor.pack_coefficients

        def spy(evaluator, parts, **kwargs):
            seen["parts"] = parts
            seen["at_entry"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fold(evaluator, parts, **kwargs)
            seen["fold_peak"] = tracemalloc.get_traced_memory()[1] - seen["at_entry"]
            seen["rows"] = out.batch_shape[0]
            return out

        monkeypatch.setattr(executor, "pack_coefficients", spy)
        tracemalloc.start()
        try:
            at_submit = tracemalloc.get_traced_memory()[0]
            responses = [server.scheduler.submit("digits", ct) for ct in cts]
            assert server.scheduler.drain() == 16
        finally:
            tracemalloc.stop()
        assert len(seen["parts"]) == 16
        assert all(part.data is ct.data for part, ct in zip(seen["parts"], cts))
        one_request = cts[0].data.nbytes
        # One request is a single 8 KiB ciphertext now, so the scheduler's
        # own bookkeeping is a few of them; the stacked batch would be 16.
        assert seen["at_entry"] - at_submit < 8 * one_request
        # 10 x 10 images at n = 256: two per ciphertext, so 8 output rows.
        # The fold holds the output plus one row's accumulator and product
        # scratch, never the output plus the stacked requests.
        rows = seen["rows"]
        assert rows == 8
        assert (rows + 2) * one_request <= seen["fold_peak"] < (rows + 16) * one_request
        assert all(r.result().packed_batch == 16 for r in responses)


class TestQueueDiscipline:
    def test_result_before_flush_raises(self, server, session, models):
        response = server.scheduler.submit(
            "digits", session.encrypt("digits", models.dataset.test_images[:1])
        )
        assert not response.done()
        with pytest.raises(ResponseNotReady):
            response.result()

    def test_queue_full_rejects_with_backpressure(
        self, batching_params, q_sigmoid, session_for, models
    ):
        srv = EdgeServer(
            batching_params, seed=13, serve_config=ServeConfig(max_queue_depth=2)
        )
        srv.provision_model("digits", q_sigmoid)
        session = session_for(srv)
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        srv.scheduler.submit("digits", ct)
        srv.scheduler.submit("digits", ct)
        with pytest.raises(QueueFullError):
            srv.scheduler.submit("digits", ct)
        assert srv.scheduler.stats.rejected_queue_full == 1
        assert srv.scheduler.queue_depth == 2
        assert srv.scheduler.drain() == 2

    def test_flush_on_capacity(self, batching_params, q_sigmoid, session_for, models):
        """The bucket flushes itself the moment it reaches packing capacity,
        without drain()."""
        srv = EdgeServer(
            batching_params, seed=13, serve_config=ServeConfig(max_batch=3)
        )
        srv.provision_model("digits", q_sigmoid)
        session = session_for(srv)
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        first = [srv.scheduler.submit("digits", ct) for _ in range(3)]
        assert all(r.done() for r in first)
        assert srv.scheduler.queue_depth == 0
        assert srv.scheduler.stats.flushes == 1

    def test_overflow_request_closes_open_batch_first(
        self, batching_params, q_sigmoid, session_for, models
    ):
        srv = EdgeServer(
            batching_params, seed=13, serve_config=ServeConfig(max_batch=3)
        )
        srv.provision_model("digits", q_sigmoid)
        session = session_for(srv)
        single = session.encrypt("digits", models.dataset.test_images[:1])
        pair = session.encrypt("digits", models.dataset.test_images[1:3])
        early = [srv.scheduler.submit("digits", single) for _ in range(2)]
        late = srv.scheduler.submit("digits", pair)
        # 2 + 2 > 3: the two early singles flushed as their own batch...
        assert all(r.done() for r in early)
        assert early[0].result().packed_batch == 2
        # ...and the pair waits for its own flush.
        assert not late.done()
        srv.scheduler.drain()
        assert late.result().packed_batch == 2


class TestRejectionPaths:
    def test_unknown_model(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(UnknownModelError):
            server.scheduler.submit("faces", ct)
        assert server.scheduler.stats.rejected_unknown_model == 1

    def test_unknown_model_is_a_pipeline_error(self, server, session, models):
        """Typed serve errors stay inside the library's existing hierarchy."""
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(PipelineError):
            _infer(server, "faces", ct)

    def test_oversized_batch(self, batching_params, q_sigmoid, session_for, models):
        srv = EdgeServer(
            batching_params, seed=13, serve_config=ServeConfig(max_batch=2)
        )
        srv.provision_model("digits", q_sigmoid)
        session = session_for(srv)
        ct = session.encrypt("digits", models.dataset.test_images[:3])
        lanes = batching_params.poly_degree
        with pytest.raises(BatchTooLargeError, match=rf"capacity 2 \(lanes: {lanes}\)"):
            srv.scheduler.submit("digits", ct)
        assert srv.scheduler.stats.rejected_oversized == 1

    def test_malformed_request_shape(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(ServeError):
            server.scheduler.submit("digits", ct[0])

    def test_foreign_parameter_ciphertext_rejected_typed(self, server, foreign_ct):
        """A right-shaped ciphertext under different parameters is a typed,
        counted ``malformed`` rejection chaining the KeyMismatchError -- not
        a bare ValueError escaping the serve error hierarchy."""
        assert len(foreign_ct.batch_shape) == 2
        with pytest.raises(ServeError) as excinfo:
            server.scheduler.submit("digits", foreign_ct)
        assert isinstance(excinfo.value.__cause__, KeyMismatchError)
        assert server.scheduler.stats.rejected_malformed == 1
        assert server.scheduler.queue_depth == 0


class TestServerFacade:
    def test_infer_pack_kwarg(self, server, session, q_sigmoid, models):
        images = models.dataset.test_images[:1]
        result = _infer(server, "digits", session.encrypt("digits", images), pack=True)
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(session.decrypt_logits(result), expected)
        assert result.packed_batch == 1
        assert result.request_id is not None

    def test_pack_true_rides_existing_batch(self, server, session, q_sigmoid, models):
        """A pack=True call drains the whole bucket: earlier submissions
        resolve on the same flush."""
        images = models.dataset.test_images[:3]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        early = [
            server.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
            for i in range(2)
        ]
        result = _infer(
            server, "digits", session.encrypt("digits", images[2:3]), pack=True
        )
        assert result.packed_batch == 3
        assert all(r.done() for r in early)
        assert np.array_equal(session.decrypt_logits(early[0].result()), expected[:1])


class TestObservability:
    def test_packed_trace_structure(self, server, session, models):
        for i in range(3):
            server.scheduler.submit(
                "digits", session.encrypt("digits", models.dataset.test_images[i : i + 1])
            )
        server.scheduler.drain()
        trace = next(
            t for t in reversed(server.platform.tracer.traces) if t.name == PACKED_SCHEME
        )
        reconcile(trace)
        stage_names = [c.name for c in trace.children if c.kind == "stage"]
        assert stage_names == ["pack", "conv", "sgx_activation_pool", "fc", "unpack"]
        request_spans = [c for c in trace.children if c.name == "serve/request"]
        assert len(request_spans) == 3
        for span in request_spans:
            assert span.attrs["queue_wait_s"] >= 0.0
            assert span.attrs["queue_depth_at_submit"] >= 0
        assert trace.attrs["batch"] == 3
        assert trace.attrs["lanes"] == server.params.poly_degree

    def test_served_result_carries_serving_metadata(self, server, session, models):
        response = server.scheduler.submit(
            "digits", session.encrypt("digits", models.dataset.test_images[:1])
        )
        server.platform.clock.elapse_real(0.1)
        server.scheduler.drain()
        result = response.result()
        assert result.packed_batch == 1
        assert result.queue_wait_s == pytest.approx(0.1)

    def test_stats_accumulate(self, server, session, models):
        for i in range(4):
            server.scheduler.submit(
                "digits", session.encrypt("digits", models.dataset.test_images[i : i + 1])
            )
        server.scheduler.drain()
        stats = server.scheduler.stats
        assert stats.submitted == 4
        assert stats.served == 4
        assert stats.flushes == 1
        assert stats.packed_images == 4
        assert stats.peak_queue_depth == 4


class TestSchedulerConstruction:
    def test_standalone_construction(self, server):
        scheduler = RequestScheduler(server, ServeConfig(max_batch=8))
        lanes = server.params.poly_degree
        assert scheduler.capacity == ServeConfig(max_batch=8).capacity(lanes) == 8

    def test_capacity_clamped_to_slots(self, server):
        scheduler = RequestScheduler(server, ServeConfig(max_batch=10**6))
        assert scheduler.capacity == server.params.poly_degree

    def test_bad_config_rejected(self):
        with pytest.raises(ServeError):
            ServeConfig(max_queue_depth=0)
        with pytest.raises(ServeError):
            ServeConfig(max_batch=0)


class TestAccountingBugfixes:
    """Pins for three accounting bugs the serving loop surfaced: silent
    malformed rejections, queue depth sampled after the overflow flush, and
    isolation re-runs inflating the flush count."""

    def _rejected_malformed_metric(self):
        from repro.obs import metrics

        return metrics.family("repro_serve_rejected_total").labels(reason="malformed")

    def test_malformed_rejections_are_counted(self, server, session, models):
        """Every malformed shape rejection lands in ServeStats and the
        ``reason="malformed"`` counter -- not just the raised error."""
        metric = self._rejected_malformed_metric()
        before_metric = metric.value
        before_stats = server.scheduler.stats.rejected_malformed
        ct = session.encrypt("digits", models.dataset.test_images[:2])
        malformed = [
            ct[0],  # not (B, C)
            ct[:, :0],  # wrong channel count
            ct[:0],  # empty batch
        ]
        for bad in malformed:
            with pytest.raises(ServeError):
                server.scheduler.submit("digits", bad)
        assert server.scheduler.stats.rejected_malformed - before_stats == 3
        assert metric.value - before_metric == 3
        # Malformed is its own reason: the unknown-model path is separate.
        with pytest.raises(UnknownModelError):
            server.scheduler.submit("nope", ct)
        assert metric.value - before_metric == 3

    def test_wrong_sized_image_rejected_before_it_poisons_the_flush(
        self, server, session, q_sigmoid, models
    ):
        """An 8x8 image against the 10x10 model used to be admitted, die at
        ``fc`` mid-flush and force every batch-mate to re-run alone.  The
        client refuses to encrypt it, and a ciphertext the flush cannot fold
        (here the image's per-pixel encoding) is a ``malformed`` rejection
        at submit; its neighbours share one flush."""
        metric = self._rejected_malformed_metric()
        before_metric = metric.value
        images = models.dataset.test_images[:3]
        first = server.scheduler.submit("digits", session.encrypt("digits", images[:1]))
        small = images[1:2, :, :8, :8]
        with pytest.raises(EncodingError, match=r"consumes \(B, 1, 10, 10\)"):
            session.encrypt("digits", small)
        with pytest.raises(ServeError, match=r"got batch shape \(1, 1, 8, 8\)"):
            server.scheduler.submit("digits", per_pixel_ct(session, q_sigmoid, small))
        last = server.scheduler.submit("digits", session.encrypt("digits", images[2:3]))
        assert server.scheduler.drain() == 2
        stats = server.scheduler.stats
        assert stats.rejected_malformed == 1
        assert metric.value - before_metric == 1
        assert stats.flushes == 1 and stats.isolations == 0
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(session.decrypt_logits(first.result()), expected[:1])
        assert np.array_equal(session.decrypt_logits(last.result()), expected[2:3])

    @pytest.mark.parametrize("side", [2, 9, 12])
    def test_image_sizes_the_chain_cannot_consume(
        self, server, session, q_sigmoid, models, side
    ):
        """Smaller than the kernel, not tiled by the pool window, and a
        feature map that misses the FC fan-in: the client encrypts only the
        model's own image size, and the host takes only ``(B, C)`` image
        ciphertexts -- anything else is ``malformed``."""
        image = np.resize(models.dataset.test_images[:1], (1, 1, side, side))
        with pytest.raises(EncodingError, match="consumes"):
            session.encrypt("digits", image)
        with pytest.raises(ServeError, match="image ciphertexts"):
            server.scheduler.submit("digits", per_pixel_ct(session, q_sigmoid, image))
        assert server.scheduler.stats.rejected_malformed == 1
        assert server.scheduler.queue_depth == 0

    def test_queue_depth_sampled_at_entry_not_after_overflow_flush(
        self, batching_params, q_sigmoid, session_for, models
    ):
        """An overflow request that forces the open batch to flush first must
        still record the depth it actually saw on entry (the two queued
        singles), not the post-flush depth of zero."""
        srv = EdgeServer(
            batching_params, seed=13, serve_config=ServeConfig(max_batch=3)
        )
        srv.provision_model("digits", q_sigmoid)
        session = session_for(srv)
        single = session.encrypt("digits", models.dataset.test_images[:1])
        pair = session.encrypt("digits", models.dataset.test_images[1:3])
        for _ in range(2):
            srv.scheduler.submit("digits", single)
        late = srv.scheduler.submit("digits", pair)  # 2+2 > 3: flushes early
        srv.scheduler.drain()
        spans = [
            c
            for t in srv.platform.tracer.traces
            if t.name == PACKED_SCHEME
            for c in t.children
            if c.name == "serve/request"
        ]
        by_id = {s.attrs["request_id"]: s.attrs["queue_depth_at_submit"] for s in spans}
        assert by_id[late.request_id] == 2
        assert by_id[0] == 0 and by_id[1] == 1

    def test_isolation_counts_isolated_requests_not_flushes(
        self, server, session, q_sigmoid, models
    ):
        """A dead packed flush that recovers via per-request isolation is ONE
        flush plus N isolated re-runs -- and the re-runs emit the same
        latency/occupancy observations the happy path would have."""
        from repro import faults
        from repro.faults import FaultPlan, FaultRule
        from repro.obs import metrics

        latency = metrics.family("repro_serve_request_latency_seconds").labels(
            model="digits", phase="queue"
        )
        occupancy = metrics.family("repro_serve_batch_occupancy_ratio").labels(
            model="digits"
        )
        lat_before, occ_before = latency.count, occupancy.count
        images = models.dataset.test_images[:3]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        responses = [
            server.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
            for i in range(3)
        ]
        stats = server.scheduler.stats
        flushes_before = stats.flushes
        # One fire kills the packed pass; every isolated re-run succeeds.
        plan = FaultPlan(11, rules=[FaultRule(site="he.noise.decrypt", max_fires=1)])
        with faults.armed(plan):
            server.scheduler.drain()
        # The dead packed pass is one isolation, not 3 extra flushes:
        # `flushes` counts successful packed passes only.
        assert stats.flushes - flushes_before == 0
        assert stats.isolated_requests == 3
        assert stats.isolations == 1
        assert stats.served == 3 and stats.failed == 0
        # Same observation cardinality as a clean 3-request flush: one
        # queue-latency sample per request, occupancy per (re)run.
        assert latency.count - lat_before == 3
        assert occupancy.count - occ_before == 3
        for i, response in enumerate(responses):
            logits = session.decrypt_logits(response.result())
            assert np.array_equal(logits[0], expected[i])
