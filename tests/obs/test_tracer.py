"""Unit tests for the tracing layer: spans, deltas, and the stage measure."""

from __future__ import annotations

import time

import pytest

from repro.errors import ReproError
from repro.he.evaluator import OperationCounter
from repro.obs import Span, Tracer, reconcile
from repro.sgx.clock import SimClock
from repro.sgx.sidechannel import SideChannelLog


@pytest.fixture()
def clock():
    return SimClock()


@pytest.fixture()
def tracer(clock):
    return Tracer(clock)


class TestSpanCapture:
    def test_clock_deltas(self, clock, tracer):
        clock.charge(1.0, "before")
        with tracer.span("work") as span:
            clock.elapse_real(0.5)
            clock.charge(0.25, "sgx_transition")
        assert span.real_s == pytest.approx(0.5)
        assert span.overhead_s == pytest.approx(0.25)
        assert span.elapsed_s == pytest.approx(0.75)
        assert span.overhead_by_category == {"sgx_transition": pytest.approx(0.25)}

    def test_category_excludes_pre_span_charges(self, clock, tracer):
        clock.charge(9.0, "sgx_transition")
        with tracer.span("work") as span:
            clock.charge(1.0, "sgx_transition")
        assert span.overhead_by_category == {"sgx_transition": pytest.approx(1.0)}

    def test_nesting_attaches_children(self, clock, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner_a"):
                clock.elapse_real(0.1)
            with tracer.span("inner_b"):
                clock.elapse_real(0.2)
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert outer.real_s == pytest.approx(0.3)
        assert tracer.traces == [outer]

    def test_counter_deltas(self, clock):
        counter = OperationCounter()
        counter.record("ct_add", 5)
        tracer = Tracer(clock, counter=counter)
        with tracer.span("work") as span:
            counter.record("ct_add", 2)
            counter.record("ct_mul", 1)
        assert span.op_counts == {"ct_add": 2, "ct_mul": 1}

    def test_crossing_deltas(self, clock):
        log = SideChannelLog()
        log.record("ecall", "earlier")
        tracer = Tracer(clock, side_channel=log)
        with tracer.span("work") as span:
            log.record("ecall", "f")
            log.record("page_fault", "x")
            log.record("ecall", "g")
        assert span.crossings == 2
        assert (log.count("ecall"), log.count("page_fault"), log.count("aex")) == (3, 1, 0)
        log.reset()
        assert log.count("ecall") == 0 and log.trace_signature() == ()

    def test_per_span_overrides_beat_tracer_defaults(self, clock):
        default = OperationCounter()
        override = OperationCounter()
        tracer = Tracer(clock, counter=default)
        with tracer.span("work", counter=override) as span:
            default.record("ct_add")
            override.record("ct_mul")
        assert span.op_counts == {"ct_mul": 1}

    def test_attrs_stored(self, tracer):
        with tracer.span("f", kind="ecall", bytes_in=10) as span:
            span.attrs["bytes_out"] = 20
        assert span.attrs == {"bytes_in": 10, "bytes_out": 20}

    def test_rejects_unknown_kind(self, tracer):
        with pytest.raises(ReproError):
            with tracer.span("x", kind="mystery"):
                pass

    def test_exception_still_closes_span(self, clock, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                clock.elapse_real(0.5)
                raise RuntimeError("boom")
        assert tracer.current is None
        assert tracer.last_trace().real_s == pytest.approx(0.5)

    def test_current_tracks_stack(self, tracer):
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
        assert tracer.current is None

    def test_last_trace_requires_one(self, tracer):
        with pytest.raises(ReproError):
            tracer.last_trace()

    def test_max_traces_bounds_retention(self, clock):
        tracer = Tracer(clock, max_traces=3)
        for i in range(10):
            with tracer.span(f"t{i}"):
                pass
        assert [t.name for t in tracer.traces] == ["t7", "t8", "t9"]

    def test_rejects_silly_max_traces(self, clock):
        with pytest.raises(ReproError):
            Tracer(clock, max_traces=0)


class TestStageMeasurement:
    def test_stage_measures_wall_time(self, clock, tracer):
        with tracer.stage("host_work") as span:
            time.sleep(0.01)
        assert span.real_s >= 0.009
        assert clock.real_s == span.real_s

    def test_stage_does_not_double_count_inner_measures(self, clock, tracer):
        """An ECALL measures its own body; the stage must add only the host
        time around it -- the per_pixel reassembly fix in miniature."""
        with tracer.stage("stage") as span:
            time.sleep(0.005)  # host-side work
            with clock.measure_real():  # what an ecall body does
                time.sleep(0.01)
            time.sleep(0.005)  # more host-side work
        # Total is wall time counted once: ~0.02s, never ~0.03s.
        assert 0.018 <= span.real_s <= 0.028
        assert clock.real_s == pytest.approx(span.real_s)

    def test_exclusive_measure_never_negative(self, clock):
        with clock.measure_real_exclusive():
            # Inner measurement may slightly exceed the outer window's own
            # wall estimate; the exclusive measure clamps at zero.
            clock.elapse_real(10.0)
        assert clock.real_s >= 10.0


class TestSpanNavigation:
    def test_walk_depth_first(self):
        tree = Span("root", children=[
            Span("a", children=[Span("a1")]),
            Span("b"),
        ])
        assert [s.name for s in tree.walk()] == ["root", "a", "a1", "b"]

    def test_find(self):
        tree = Span("root", children=[Span("a", children=[Span("target", kind="ecall")])])
        assert tree.find("target").kind == "ecall"
        with pytest.raises(KeyError):
            tree.find("missing")

    def test_stages_and_ecalls(self):
        tree = Span("root", kind="pipeline", children=[
            Span("encrypt", kind="stage"),
            Span("sgx", kind="stage", children=[Span("f", kind="ecall")]),
        ])
        assert [s.name for s in tree.stages()] == ["encrypt", "sgx"]
        assert [s.name for s in tree.ecalls()] == ["f"]


class TestReconcile:
    def test_accepts_consistent_tree(self):
        reconcile(Span("root", real_s=1.0, overhead_s=0.5, children=[
            Span("a", kind="stage", real_s=0.6, overhead_s=0.5),
            Span("b", kind="stage", real_s=0.4),
        ]))

    def test_rejects_children_exceeding_parent_real(self):
        with pytest.raises(ReproError):
            reconcile(Span("root", real_s=1.0, children=[
                Span("a", kind="stage", real_s=1.5),
            ]))

    def test_rejects_children_exceeding_parent_overhead(self):
        with pytest.raises(ReproError):
            reconcile(Span("root", overhead_s=0.1, children=[
                Span("a", kind="stage", overhead_s=0.2),
            ]))

    def test_rejects_excess_child_crossings(self):
        with pytest.raises(ReproError):
            reconcile(Span("root", crossings=1, children=[
                Span("a", kind="ecall", crossings=2),
            ]))
