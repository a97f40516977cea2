"""Structured tracing over the simulated clock.

A :class:`Tracer` emits nested :class:`Span` records -- pipeline -> stage ->
ecall -- each capturing, for its dynamic extent:

* real (measured) seconds and modeled SGX overhead seconds, read as deltas
  of the underlying :class:`~repro.sgx.clock.SimClock`;
* the overhead decomposition by cost-model category
  (``sgx_transition``, ``sgx_marshalling``, ``sgx_epc_compute``, paging, ...);
* homomorphic-operation deltas from an
  :class:`~repro.he.evaluator.OperationCounter`, when one is bound;
* enclave-crossing deltas from a
  :class:`~repro.sgx.sidechannel.SideChannelLog`, when one is bound.

Because spans read the same clock the cost model charges, the timing
invariant *sum of a span's real+overhead == the clock delta across it* holds
by construction, and the per-stage decomposition the paper's Tables I-V and
Fig. 8 report becomes an enforceable property instead of hand-rolled
clock-delta bookkeeping (see ``tests/obs/test_trace_reconciliation.py``).

Stages opened with :meth:`Tracer.stage` additionally time the block's
host-side wall clock through
:meth:`~repro.sgx.clock.SimClock.measure_real_exclusive`, so work done
*around* enclave crossings (argument slicing, result reassembly) is charged
exactly once -- the fix for the ``per_pixel`` blind spot where the
reassembly loop ran outside every measurement window.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import ReproError
from repro.obs import context as obs_context
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.he.evaluator import OperationCounter
    from repro.sgx.clock import SimClock
    from repro.sgx.sidechannel import SideChannelLog

#: Span kinds the schema defines (``attrs`` may extend, kinds may not).
SPAN_KINDS = ("pipeline", "stage", "ecall", "span")

@dataclass(slots=True)
class Span:
    """One traced region: clock/counter/crossing deltas plus children."""

    name: str
    kind: str = "span"
    real_s: float = 0.0
    overhead_s: float = 0.0
    overhead_by_category: dict[str, float] = field(default_factory=dict)
    op_counts: dict[str, int] = field(default_factory=dict)
    crossings: int = 0
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        """Simulated seconds: real compute plus modeled SGX overhead."""
        return self.real_s + self.overhead_s

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, in open order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span":
        """First descendant (or self) with ``name``."""
        for span in self.walk():
            if span.name == name:
                return span
        raise KeyError(f"no span named {name!r} under {self.name!r}")

    def stages(self) -> list["Span"]:
        """Direct children of kind ``stage``, in execution order."""
        return [c for c in self.children if c.kind == "stage"]

    def ecalls(self) -> list["Span"]:
        """Every descendant ecall span, in execution order."""
        return [s for s in self.walk() if s.kind == "ecall"]

    def to_dict(self) -> dict:
        """JSON-ready form of the span tree (the export schema)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "real_s": self.real_s,
            "overhead_s": self.overhead_s,
            "elapsed_s": self.elapsed_s,
            "overhead_by_category": dict(self.overhead_by_category),
            "op_counts": dict(self.op_counts),
            "crossings": self.crossings,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }


class Tracer:
    """Emits nested spans over one :class:`~repro.sgx.clock.SimClock`.

    Args:
        clock: the simulated clock all spans read their deltas from.
        counter: default operation counter spans diff (overridable per span).
        side_channel: default side-channel log spans diff for crossings.

    Finished top-level spans accumulate in :attr:`traces` (bounded by
    ``max_traces``, oldest dropped first, so a long-lived server does not
    leak memory); nested spans attach to their parent.  One tracer serves
    one clock -- an :class:`~repro.sgx.enclave.SgxPlatform` owns one, and
    pipelines without a platform create their own.
    """

    def __init__(
        self,
        clock: "SimClock",
        counter: "OperationCounter | None" = None,
        side_channel: "SideChannelLog | None" = None,
        max_traces: int | None = 256,
    ) -> None:
        if max_traces is not None and max_traces < 1:
            raise ReproError("max_traces must be >= 1 (or None for unbounded)")
        self.clock = clock
        self.counter = counter
        self.side_channel = side_channel
        self.max_traces = max_traces
        self.traces: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        counter: "OperationCounter | None" = None,
        side_channel: "SideChannelLog | None" = None,
        **attrs,
    ):
        """Open a span; deltas are captured when the block exits.

        Args:
            name: span label (stage or ecall name, pipeline scheme, ...).
            kind: one of :data:`SPAN_KINDS`.
            counter: operation counter to diff (defaults to the tracer's).
            side_channel: log to diff for crossings (defaults to the
                tracer's).
            **attrs: free-form annotations stored on the span
                (``bytes_in``, ``trusted``, ...).
        """
        if kind not in SPAN_KINDS:
            raise ReproError(f"unknown span kind {kind!r}; expected one of {SPAN_KINDS}")
        counter = counter if counter is not None else self.counter
        side_channel = side_channel if side_channel is not None else self.side_channel
        span = Span(name=name, kind=kind, attrs=dict(attrs))
        # Every span opened while a request (or control-plane) context is
        # ambient is attributable; explicit trace_id/trace_ids attrs win.
        if "trace_id" not in span.attrs and "trace_ids" not in span.attrs:
            obs_context.stamp(span.attrs)
        start_real = self.clock.real_s
        start_overhead = self.clock.overhead_s
        start_categories = self.clock.snapshot()
        start_counts = dict(counter.counts) if counter is not None else None
        start_crossings = (
            side_channel.count("ecall") if side_channel is not None else None
        )
        self._stack.append(span)
        try:
            yield span
        finally:
            popped = self._stack.pop()
            assert popped is span, "span stack corrupted"
            span.real_s = self.clock.real_s - start_real
            span.overhead_s = self.clock.overhead_s - start_overhead
            end_categories = self.clock.snapshot()
            span.overhead_by_category = {
                cat: delta
                for cat, total in end_categories.items()
                if (delta := total - start_categories.get(cat, 0.0)) > 0.0
                and cat != "compute"
            }
            if counter is not None:
                span.op_counts = {
                    op: delta
                    for op, total in counter.counts.items()
                    if (delta := total - start_counts.get(op, 0)) > 0
                }
            if side_channel is not None:
                span.crossings = side_channel.count("ecall") - start_crossings
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.traces.append(span)
                if self.max_traces is not None and len(self.traces) > self.max_traces:
                    del self.traces[: len(self.traces) - self.max_traces]
                if span.kind == "pipeline":
                    # Per-run traces roll up into the process-wide metrics
                    # registry so aggregate and trace views reconcile.
                    metrics.registry().record_trace(span)

    @contextmanager
    def stage(self, name: str, **kwargs):
        """A ``stage`` span that also measures the block's host wall time.

        Uses :meth:`SimClock.measure_real_exclusive`, so enclave crossings
        inside the stage are not double-counted while any host-side work
        around them (e.g. the per-pixel reassembly loop) is.
        """
        with self.span(name, kind="stage", **kwargs) as span:
            with self.clock.measure_real_exclusive():
                yield span

    def last_trace(self) -> Span:
        """The most recently finished top-level span."""
        if not self.traces:
            raise ReproError("tracer has no finished top-level spans")
        return self.traces[-1]

    def reset(self) -> None:
        """Drop finished traces (open spans are unaffected)."""
        self.traces.clear()


def reconcile(span: Span, rel_tol: float = 1e-6, abs_tol: float = 1e-9) -> None:
    """Assert the span tree's timing invariant, raising on violation.

    Checks that every parent's real/overhead totals are at least the sum of
    its children's (children are disjoint sub-intervals of the parent's
    clock window) and that crossings are consistent.  Pipelines' regression
    tests call this on every trace they emit.
    """
    for parent in span.walk():
        if not parent.children:
            continue
        child_real = sum(c.real_s for c in parent.children)
        child_overhead = sum(c.overhead_s for c in parent.children)
        child_crossings = sum(c.crossings for c in parent.children)
        tol = max(abs_tol, rel_tol * max(abs(parent.real_s), abs(child_real)))
        if child_real > parent.real_s + tol:
            raise ReproError(
                f"span {parent.name!r}: children real {child_real:.9f}s exceed "
                f"parent {parent.real_s:.9f}s"
            )
        tol = max(abs_tol, rel_tol * max(abs(parent.overhead_s), abs(child_overhead)))
        if child_overhead > parent.overhead_s + tol:
            raise ReproError(
                f"span {parent.name!r}: children overhead {child_overhead:.9f}s "
                f"exceed parent {parent.overhead_s:.9f}s"
            )
        if parent.crossings and child_crossings > parent.crossings:
            raise ReproError(
                f"span {parent.name!r}: children count {child_crossings} crossings, "
                f"parent only {parent.crossings}"
            )
