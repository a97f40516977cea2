"""Deterministic trace-context tests: derivation, validation, resolution."""

from __future__ import annotations

import pytest

from repro.errors import TraceFormatError
from repro.obs import Span, TraceContext, resolve_trace_ids, spans_without_context
from repro.obs import context as obs_context


class TestDerivation:
    def test_deterministic_from_seed_and_counter(self):
        a = TraceContext.derive(b"\x42" * 32, 1)
        b = TraceContext.derive(b"\x42" * 32, 1)
        assert a == b
        assert a.trace_id == b.trace_id

    def test_distinct_counters_distinct_ids(self):
        ids = {TraceContext.derive(b"\x42" * 32, i).trace_id for i in range(32)}
        assert len(ids) == 32

    def test_distinct_seeds_distinct_ids(self):
        assert (
            TraceContext.derive(b"a", 1).trace_id
            != TraceContext.derive(b"b", 1).trace_id
        )

    def test_string_and_int_seeds(self):
        assert TraceContext.derive("scheduler:digits", 3).trace_id
        assert TraceContext.derive(7, 3).trace_id

    def test_id_shape(self):
        ctx = TraceContext.derive(b"seed", 1)
        assert len(ctx.trace_id) == obs_context.TRACE_ID_HEX
        int(ctx.trace_id, 16)  # hex

    def test_child_chains_parentage(self):
        parent = TraceContext.derive(b"seed", 1)
        child = parent.child("flush-4")
        assert child.trace_id == parent.trace_id
        assert child.parent_id == "flush-4"


class TestValidation:
    def test_bad_constructor_args_typed(self):
        with pytest.raises(TraceFormatError):
            TraceContext(trace_id="nothex!")
        with pytest.raises(TraceFormatError):
            TraceContext(trace_id="ab" * 8, parent_id=7)  # type: ignore[arg-type]


class TestAmbientStack:
    def test_activate_and_current(self):
        assert obs_context.current() == ()
        ctx = TraceContext.derive(b"s", 1)
        with obs_context.activate(ctx):
            assert obs_context.current() == (ctx,)
            assert obs_context.current_trace_ids() == (ctx.trace_id,)
        assert obs_context.current() == ()

    def test_none_entries_dropped(self):
        with obs_context.activate(None, None) as group:
            assert group == ()
            assert obs_context.current() == ()

    def test_stamp_single_and_group(self):
        a = TraceContext.derive(b"s", 1)
        b = TraceContext.derive(b"s", 2)
        attrs: dict = {}
        with obs_context.activate(a):
            obs_context.stamp(attrs)
        assert attrs["trace_id"] == a.trace_id
        shared: dict = {}
        with obs_context.activate(a, b):
            obs_context.stamp(shared)
        assert shared["trace_ids"] == [a.trace_id, b.trace_id]


class TestResolution:
    def test_children_inherit_nearest_ancestor(self):
        a = TraceContext.derive(b"s", 1)
        b = TraceContext.derive(b"s", 2)
        root = Span(
            "pipe",
            kind="pipeline",
            attrs={"trace_ids": [a.trace_id, b.trace_id]},
            children=[
                Span("stage", kind="stage", children=[Span("ecall", kind="ecall")]),
                Span("req", kind="span", attrs={"trace_id": a.trace_id}),
            ],
        )
        resolved = dict((s.name, ids) for s, ids in resolve_trace_ids(root))
        assert resolved["pipe"] == (a.trace_id, b.trace_id)
        assert resolved["stage"] == (a.trace_id, b.trace_id)
        assert resolved["ecall"] == (a.trace_id, b.trace_id)
        assert resolved["req"] == (a.trace_id,)
        assert spans_without_context(root) == []

    def test_unannotated_tree_flagged(self):
        root = Span("pipe", kind="pipeline", children=[Span("stage", kind="stage")])
        assert len(spans_without_context(root)) == 2


class TestDirectPipelineTraces:
    """A direct ``infer`` (no request context ambient) derives its own, so
    every span of its trace resolves a trace id -- what ``obsctl check``
    asserts of the ``python -m repro --trace-json`` output."""

    def test_cryptonets_trace_resolves(self, q_square, pure_he_params, test_images):
        from repro.core import CryptonetsPipeline

        result = CryptonetsPipeline(q_square, pure_he_params, seed=5).infer(test_images)
        assert spans_without_context(result.trace) == []

    def test_hybrid_trace_resolves_one_id_per_inference(
        self, q_sigmoid, hybrid_params, test_images
    ):
        from repro.core import HybridPipeline

        pipe = HybridPipeline(q_sigmoid, hybrid_params, seed=5)
        first, second = (pipe.infer(test_images).trace for _ in range(2))
        assert spans_without_context(first) == spans_without_context(second) == []
        assert first.ecalls() and first.attrs["trace_id"] != second.attrs["trace_id"]

    def test_an_ambient_context_is_kept(self, q_sigmoid, hybrid_params, test_images):
        from repro.core import HybridPipeline

        pipe = HybridPipeline(q_sigmoid, hybrid_params, seed=5)
        ctx = TraceContext.derive(b"client", 7)
        with obs_context.activate(ctx):
            trace = pipe.infer(test_images).trace
        assert trace.attrs["trace_id"] == ctx.trace_id
