"""Trace exporters: JSON documents and flat Prometheus-style metrics.

Two consumers, two shapes:

* :func:`trace_to_json` -- the full span tree, schema documented in
  DESIGN.md, for offline inspection and the ``python -m repro --trace-json``
  smoke path;
* :func:`metrics_from_trace` -- a flat ``{metric_name: value}`` dict using
  Prometheus exposition-style names with ``{label="value"}`` selectors, the
  form the benchmark tables consume directly.  Exposition text comes from
  :meth:`repro.obs.metrics.MetricsRegistry.render_prometheus`.

Both flat views are built from one structured intermediate,
:func:`samples_from_trace`, which
:meth:`repro.obs.metrics.MetricsRegistry.record_trace` replays as counter
increments -- the construction that keeps the single-trace view and the
aggregate registry reconciled sample-for-sample.
"""

from __future__ import annotations

import json

from repro.errors import TraceFormatError
from repro.obs.metrics import format_labels
from repro.obs.tracer import SPAN_KINDS, Span

#: Exposition metadata for the trace-derived families (unprefixed names).
TRACE_FAMILY_HELP = {
    "pipeline_real_seconds": "Measured compute seconds per pipeline trace.",
    "pipeline_overhead_seconds": "Modeled SGX overhead seconds per pipeline trace.",
    "pipeline_crossings_total": "Enclave crossings per pipeline trace.",
    "stage_real_seconds": "Measured compute seconds per pipeline stage.",
    "stage_overhead_seconds": "Modeled SGX overhead seconds per pipeline stage.",
    "overhead_seconds": "SGX overhead decomposition by cost-model category.",
    "he_ops_total": "Scalar homomorphic operations by kind.",
    "ecall_count": "ECALL invocations by entry point.",
    "ecall_bytes_total": "Bytes marshalled across the boundary by entry point.",
}


def trace_to_dict(span: Span) -> dict:
    """The span tree as a JSON-ready dict (alias of :meth:`Span.to_dict`)."""
    return span.to_dict()


def trace_to_json(span: Span, indent: int | None = 2) -> str:
    """Serialize a span tree to a JSON document."""
    return json.dumps(span.to_dict(), indent=indent)


def trace_from_dict(doc: dict) -> Span:
    """Rebuild a span tree from its :func:`trace_to_dict` form.

    Raises:
        TraceFormatError: the document is missing required fields or names
            a ``kind`` outside :data:`~repro.obs.tracer.SPAN_KINDS` -- a
            hand-edited or corrupted export must fail loudly instead of
            silently rebuilding a tree no tracer could have produced.
    """
    if not isinstance(doc, dict):
        raise TraceFormatError(f"span document must be a dict, got {type(doc).__name__}")
    missing = [key for key in ("name", "kind", "real_s", "overhead_s") if key not in doc]
    if missing:
        raise TraceFormatError(f"span document is missing required fields {missing}")
    kind = doc["kind"]
    if kind not in SPAN_KINDS:
        raise TraceFormatError(
            f"unknown span kind {kind!r} in trace document; expected one of {SPAN_KINDS}"
        )
    return Span(
        name=doc["name"],
        kind=kind,
        real_s=doc["real_s"],
        overhead_s=doc["overhead_s"],
        overhead_by_category=dict(doc.get("overhead_by_category", {})),
        op_counts=dict(doc.get("op_counts", {})),
        crossings=doc.get("crossings", 0),
        attrs=dict(doc.get("attrs", {})),
        children=[trace_from_dict(c) for c in doc.get("children", [])],
    )


def trace_from_json(text: str) -> Span:
    """Rebuild a span tree from a :func:`trace_to_json` document."""
    return trace_from_dict(json.loads(text))


def samples_from_trace(
    span: Span, prefix: str = "repro"
) -> list[tuple[str, dict[str, str], float]]:
    """One pipeline trace as structured ``(family, labels, value)`` samples.

    The single source both flat views derive from: :func:`metrics_from_trace`
    formats these into exposition-keyed floats, and
    :meth:`~repro.obs.metrics.MetricsRegistry.record_trace` replays them as
    counter increments.

    Emitted families (``p`` = the root span's name, i.e. the scheme label):

    * ``{prefix}_pipeline_real_seconds{pipeline=p}`` / ``_overhead_seconds``
    * ``{prefix}_pipeline_crossings_total{pipeline=p}``
    * ``{prefix}_stage_real_seconds{pipeline=p,stage=s}`` (+ overhead), one
      per direct ``stage`` child;
    * ``{prefix}_overhead_seconds{pipeline=p,category=c}`` from the root's
      cost-model decomposition;
    * ``{prefix}_he_ops_total{pipeline=p,op=o}`` from the root's operation
      deltas;
    * ``{prefix}_ecall_count{pipeline=p,ecall=e}`` and
      ``{prefix}_ecall_bytes_total{pipeline=p,ecall=e}`` aggregated over all
      descendant ecall spans.
    """
    pipeline = span.name
    samples: list[tuple[str, dict[str, str], float]] = [
        (f"{prefix}_pipeline_real_seconds", {"pipeline": pipeline}, span.real_s),
        (f"{prefix}_pipeline_overhead_seconds", {"pipeline": pipeline}, span.overhead_s),
        (
            f"{prefix}_pipeline_crossings_total",
            {"pipeline": pipeline},
            float(span.crossings),
        ),
    ]
    for stage in span.stages():
        labels = {"pipeline": pipeline, "stage": stage.name}
        samples.append((f"{prefix}_stage_real_seconds", labels, stage.real_s))
        samples.append((f"{prefix}_stage_overhead_seconds", labels, stage.overhead_s))
    for category, seconds in sorted(span.overhead_by_category.items()):
        samples.append(
            (f"{prefix}_overhead_seconds", {"pipeline": pipeline, "category": category}, seconds)
        )
    for op, count in sorted(span.op_counts.items()):
        samples.append(
            (f"{prefix}_he_ops_total", {"pipeline": pipeline, "op": op}, float(count))
        )
    calls: dict[str, int] = {}
    bytes_crossed: dict[str, int] = {}
    for ecall in span.ecalls():
        calls[ecall.name] = calls.get(ecall.name, 0) + 1
        moved = int(ecall.attrs.get("bytes_in", 0)) + int(ecall.attrs.get("bytes_out", 0))
        bytes_crossed[ecall.name] = bytes_crossed.get(ecall.name, 0) + moved
    for name in sorted(calls):
        labels = {"pipeline": pipeline, "ecall": name}
        samples.append((f"{prefix}_ecall_count", labels, float(calls[name])))
        samples.append(
            (f"{prefix}_ecall_bytes_total", labels, float(bytes_crossed[name]))
        )
    return samples


def metrics_from_trace(span: Span, prefix: str = "repro") -> dict[str, float]:
    """Flatten one pipeline trace into a Prometheus-style metrics dict.

    See :func:`samples_from_trace` for the emitted families; keys here are
    ``family{label="value",...}`` exposition strings.
    """
    return {
        f"{family}{format_labels(labels)}": value
        for family, labels, value in samples_from_trace(span, prefix)
    }
