"""Observability: structured tracing + metrics over the simulated clock.

``repro.obs`` replaces the ad-hoc clock-delta + ``StageTiming``
bookkeeping the pipelines used to hand-roll.  A :class:`Tracer` bound to a
:class:`~repro.sgx.clock.SimClock` emits nested :class:`Span` records
(pipeline -> stage -> ecall) capturing real seconds, modeled SGX overhead by
category, homomorphic-operation deltas, and enclave-crossing counts; traces
export to JSON or a flat Prometheus-style metrics dict.

The aggregate half is :mod:`repro.obs.metrics`: a process-wide
:class:`MetricsRegistry` of counters, gauges and histograms that every
layer (serve scheduler, fault/recovery, SGX substrate, HE substrate)
instruments, with full Prometheus exposition and a JSON
:class:`MetricsSnapshot`.  Finished ``pipeline`` traces roll up into the
registry automatically (:meth:`MetricsRegistry.record_trace`), so the
per-run trace view and the fleet metrics view reconcile by construction.

See DESIGN.md ("Observability" and "Metrics & regression gating") for the
span schema, the timing invariant, and the metric family inventory.
"""

from repro.obs.context import (
    TraceContext,
    activate,
    current,
    current_trace_ids,
    derive_trace_id,
    resolve_trace_ids,
    spans_without_context,
    stamp,
)
from repro.obs.export import (
    metrics_from_trace,
    samples_from_trace,
    trace_from_dict,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
)
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    registry,
    set_registry,
    use_registry,
)
from repro.obs.profile import (
    NodeProfile,
    ProfileReport,
    profile_from_trace,
    profile_from_traces,
    render_timeline,
    spans_without_node,
)
# NOTE: the ``recorder()`` accessor is deliberately *not* re-exported here:
# binding that name in the package namespace would shadow the
# ``repro.obs.recorder`` submodule attribute that instrumented layers import
# (``from repro.obs import recorder``).  Use the submodule directly.
from repro.obs.recorder import FlightEvent, FlightRecorder, use_recorder
from repro.obs.tracer import SPAN_KINDS, Span, Tracer, active_tracer, reconcile

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NodeProfile",
    "ProfileReport",
    "SPAN_KINDS",
    "Span",
    "TraceContext",
    "Tracer",
    "activate",
    "active_tracer",
    "current",
    "current_trace_ids",
    "derive_trace_id",
    "metrics_from_trace",
    "profile_from_trace",
    "profile_from_traces",
    "reconcile",
    "registry",
    "render_timeline",
    "resolve_trace_ids",
    "samples_from_trace",
    "set_registry",
    "spans_without_context",
    "spans_without_node",
    "stamp",
    "trace_from_dict",
    "trace_from_json",
    "trace_to_dict",
    "trace_to_json",
    "use_recorder",
]
