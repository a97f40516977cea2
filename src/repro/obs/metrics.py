"""Process-wide metrics registry: counters, gauges and histograms.

Single-run trace trees (:mod:`repro.obs.tracer`) answer "where did *this*
inference spend its time"; they cannot answer the fleet questions the
paper's deployment story raises -- how deep does the queue get, what does
the p99 request latency look like split into queue wait vs compute, how
often does the enclave restart, how much noise-budget headroom does each
layer have.  This module is the aggregate half of observability:

* :class:`Counter` -- monotone accumulations (requests, ecalls, fault
  fires, EPC evictions);
* :class:`Gauge` -- last-written values (queue depth, noise-budget bits);
* :class:`Histogram` -- fixed-bucket distributions with Prometheus
  ``_bucket``/``_sum``/``_count`` exposition and quantile estimation;
  latency histograms share the log-scaled :data:`LATENCY_BUCKETS`.

Every family lives in a :class:`MetricsRegistry`; the process-wide default
(:func:`registry`) is what the instrumented sites across ``repro.serve``,
``repro.faults``, ``repro.sgx`` and ``repro.he`` write to.  A registry can
be disabled, which turns every instrumentation call into a cheap no-op
(sites receive shared null metrics; no children or samples are allocated).

Determinism: metrics record only values the callers derive from the
simulated clock and deterministic counters -- the registry itself never
reads wall time, so two identical runs produce identical snapshots.

The trace and metrics views reconcile by construction:
:meth:`MetricsRegistry.record_trace` replays the exact samples
:func:`repro.obs.export.metrics_from_trace` would flatten a span tree
into, as counter increments -- the tracer calls it automatically whenever
a top-level ``pipeline`` span closes, so per-request traces roll up into
fleet totals without any pipeline knowing about it.

Not thread-safe by design: the simulator is single-threaded, and the
SimClock it meters shares the same assumption.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterable

from repro.errors import MetricsError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Span

#: Log-scaled latency buckets (seconds): 100 us doubling up to ~209 s.
#: Shared by every ``*_seconds`` histogram so latency distributions are
#: comparable across serve/faults/sgx families.
LATENCY_BUCKETS: tuple[float, ...] = tuple(1e-4 * 2.0**i for i in range(22))

#: Buckets for occupancy-style ratios in [0, 1] (batch fill fraction).
RATIO_BUCKETS: tuple[float, ...] = (0.03125, 0.0625, 0.125, 0.25, 0.5, 0.75, 1.0)

_METRIC_TYPES = ("counter", "gauge", "histogram")


def escape_label_value(value: object) -> str:
    """Escape a label value for Prometheus exposition.

    Backslash, double-quote and newline are the three characters the
    exposition format requires escaping; hostile span or model names (a
    user-chosen model called ``evil"} 1\\n``) otherwise produce malformed
    lines a scraper would misparse.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_labels(labels: dict[str, object]) -> str:
    """``{k="v",...}`` selector with escaped values, sorted by key;
    empty-valued labels are dropped and an empty set renders as ``""``."""
    inner = ",".join(
        f'{k}="{escape_label_value(v)}"'
        for k, v in sorted(labels.items())
        if str(v) != ""
    )
    return "{" + inner + "}" if inner else ""


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    return f"{value:.9g}"


# ----------------------------------------------------------------------
# children: where samples actually live
# ----------------------------------------------------------------------
class Counter:
    """A monotone counter child (one label combination)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0: counters only go up)."""
        if amount < 0:
            raise MetricsError(f"counters are monotone; cannot inc by {amount}")
        self._value += amount


class Gauge:
    """A last-write-wins gauge child (one label combination)."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount


class Histogram:
    """A fixed-bucket histogram child (one label combination).

    Buckets are upper bounds (``le`` semantics: a sample lands in the first
    bucket whose bound is >= the value); an implicit ``+Inf`` bucket
    catches overflow.  ``sum``/``count`` accumulate alongside.
    """

    __slots__ = ("buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def bucket_counts(self) -> dict[str, int]:
        """Cumulative counts keyed by formatted upper bound (incl. +Inf)."""
        out: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out[_format_value(bound)] = running
        out["+Inf"] = running + self._counts[-1]
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation inside the
        bucket that crosses it (the ``histogram_quantile`` estimator).

        Returns NaN for an empty histogram.  Quantiles landing in the
        ``+Inf`` bucket clamp to the highest finite bound, exactly as
        Prometheus does -- the estimate cannot exceed what the buckets can
        resolve.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return math.nan
        rank = q * self._count
        running = 0
        lower = 0.0
        for bound, count in zip(self.buckets, self._counts):
            if running + count >= rank and count > 0:
                fraction = (rank - running) / count
                return lower + (bound - lower) * max(0.0, min(1.0, fraction))
            running += count
            lower = bound
        return self.buckets[-1] if self.buckets else math.nan


class _NullMetric:
    """Shared no-op child handed out by a disabled registry."""

    __slots__ = ()

    value = 0.0
    sum = 0.0
    count = 0

    def labels(self, **_labels) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return math.nan


_NULL = _NullMetric()

_CHILD_TYPES = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """One named family: fixed label names, one child per label combination.

    Obtained from the registry's :meth:`~MetricsRegistry.counter` /
    ``gauge`` / ``histogram`` accessors (get-or-create).  Unlabeled
    families delegate ``inc``/``set``/``observe`` to a single default
    child, so ``registry.counter("x", "...").inc()`` just works.
    """

    def __init__(
        self,
        name: str,
        help: str,
        type: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        if type not in _METRIC_TYPES:
            raise MetricsError(f"unknown metric type {type!r}")
        if type == "histogram":
            buckets = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
            if list(buckets) != sorted(set(buckets)):
                raise MetricsError("histogram buckets must be strictly increasing")
        self.name = name
        self.help = help
        self.type = type
        self.labelnames = tuple(labelnames)
        self.buckets = buckets
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}

    def _new_child(self) -> Counter | Gauge | Histogram:
        if self.type == "histogram":
            return Histogram(self.buckets or LATENCY_BUCKETS)
        return _CHILD_TYPES[self.type]()

    def labels(self, **labels: object) -> Counter | Gauge | Histogram:
        """The child for one label combination (created on first use,
        identical object on every subsequent call)."""
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise MetricsError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._new_child()
            self._children[key] = child
        return child

    # unlabeled convenience surface -----------------------------------
    def _default(self) -> Counter | Gauge | Histogram:
        if self.labelnames:
            raise MetricsError(
                f"metric {self.name!r} is labeled {self.labelnames}; "
                "call .labels(...) first"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)  # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self._default().set(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        self._default().observe(value)  # type: ignore[union-attr]

    def quantile(self, q: float) -> float:
        return self._default().quantile(q)  # type: ignore[union-attr]

    def samples(self) -> Iterable[tuple[dict[str, str], Counter | Gauge | Histogram]]:
        for key in sorted(self._children):
            yield dict(zip(self.labelnames, key)), self._children[key]


class MetricsSnapshot:
    """Immutable point-in-time copy of a registry (the JSON dump shape).

    ``families`` is a list of ``{name, type, help, samples}`` dicts where
    each sample is ``{labels, value}`` for counters/gauges and
    ``{labels, sum, count, buckets}`` (cumulative, keyed by ``le``) for
    histograms -- the exact document ``tools/bench_gate.py`` and offline
    dashboards consume.
    """

    def __init__(self, families: list[dict]) -> None:
        self.families = families

    def to_dict(self) -> dict:
        return {"families": self.families}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def family(self, name: str) -> dict | None:
        for family in self.families:
            if family["name"] == name:
                return family
        return None

    def flat(self) -> dict[str, float]:
        """Exposition-keyed flat view: ``name{labels}`` -> value, with
        histograms expanded to ``_bucket``/``_sum``/``_count`` samples.
        The same key format :func:`~repro.obs.export.metrics_from_trace`
        emits, which is what makes the two views directly comparable."""
        out: dict[str, float] = {}
        for family in self.families:
            name = family["name"]
            for sample in family["samples"]:
                labels = dict(sample["labels"])
                if family["type"] == "histogram":
                    for le, count in sample["buckets"].items():
                        out[f"{name}_bucket{format_labels({**labels, 'le': le})}"] = float(count)
                    out[f"{name}_sum{format_labels(labels)}"] = sample["sum"]
                    out[f"{name}_count{format_labels(labels)}"] = float(sample["count"])
                else:
                    out[f"{name}{format_labels(labels)}"] = sample["value"]
        return out


class MetricsRegistry:
    """Owns metric families; get-or-create accessors, snapshot, exposition.

    Args:
        enabled: start enabled (the default) or as a no-op registry.

    A disabled registry hands every accessor the shared :data:`_NULL`
    metric -- instrumentation sites pay one attribute read and a branch,
    allocate nothing, and record nothing, which keeps the "observability
    off" path honest for the zero-overhead chaos tests.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # family accessors (get-or-create)
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        help: str,
        type: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily | _NullMetric:
        if not self.enabled:
            return _NULL
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, help, type, labelnames, buckets)
            self._families[name] = family
            return family
        if family.type != type or family.labelnames != tuple(labelnames):
            raise MetricsError(
                f"metric {name!r} already registered as {family.type} with "
                f"labels {family.labelnames}; cannot re-register as {type} "
                f"with {tuple(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily | _NullMetric:
        return self._family(name, help, "counter", labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily | _NullMetric:
        return self._family(name, help, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily | _NullMetric:
        return self._family(name, help, "histogram", labelnames, buckets)

    def disable(self) -> None:
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def reset(self) -> None:
        """Drop every family (tests; a fresh scrape surface)."""
        self._families.clear()

    # ------------------------------------------------------------------
    # trace bridge
    # ------------------------------------------------------------------
    def record_trace(self, span: "Span", prefix: str = "repro") -> None:
        """Fold one finished pipeline trace into the registry's counters.

        Replays :func:`repro.obs.export.samples_from_trace` -- the exact
        samples the single-trace flat view is built from -- as counter
        increments, so ``metrics_from_trace(span)`` and a fresh registry
        after ``record_trace(span)`` agree sample-for-sample (the
        reconciliation invariant, asserted by
        ``tests/obs/test_metrics.py``).  The tracer calls this on every
        top-level ``pipeline`` span, turning per-run traces into fleet
        aggregates.
        """
        if not self.enabled:
            return
        from repro.obs.export import TRACE_FAMILY_HELP, samples_from_trace

        for family, labels, value in samples_from_trace(span, prefix=prefix):
            help_text = TRACE_FAMILY_HELP.get(
                family.removeprefix(f"{prefix}_"), "bridged from trace spans"
            )
            counter = self.counter(family, help_text, tuple(sorted(labels)))
            counter.labels(**labels).inc(value)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def collect(self) -> MetricsSnapshot:
        families = []
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for labels, child in family.samples():
                if isinstance(child, Histogram):
                    samples.append(
                        {
                            "labels": labels,
                            "sum": child.sum,
                            "count": child.count,
                            "buckets": child.bucket_counts(),
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            families.append(
                {
                    "name": family.name,
                    "type": family.type,
                    "help": family.help,
                    "samples": samples,
                }
            )
        return MetricsSnapshot(families)

    def render_prometheus(self) -> str:
        """Full exposition: ``# HELP``/``# TYPE`` per family, histogram
        ``_bucket{le=}``/``_sum``/``_count`` expansion, escaped labels.
        Histogram samples are consistency-checked first
        (:func:`validate_histogram_sample`)."""
        lines: list[str] = []
        for family in self.collect().families:
            name = family["name"]
            help_text = escape_help(family["help"]) or name
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {family['type']}")
            for sample in family["samples"]:
                labels = dict(sample["labels"])
                if family["type"] == "histogram":
                    validate_histogram_sample(name, sample)
                    for le, count in sample["buckets"].items():
                        selector = format_labels({**labels, "le": le})
                        lines.append(f"{name}_bucket{selector} {count}")
                    lines.append(
                        f"{name}_sum{format_labels(labels)} {_format_value(sample['sum'])}"
                    )
                    lines.append(f"{name}_count{format_labels(labels)} {sample['count']}")
                else:
                    lines.append(
                        f"{name}{format_labels(labels)} {_format_value(sample['value'])}"
                    )
        return "\n".join(lines)


def validate_histogram_sample(name: str, sample: dict) -> None:
    """Assert one collected histogram sample is internally consistent.

    Cumulative bucket counts must be monotone non-decreasing in bound
    order and ``count`` must equal the top (``+Inf``) bucket; a violation
    means corrupted child state and raises :class:`MetricsError` rather
    than letting the exposition publish an uninterpretable series.
    """
    buckets = sample["buckets"]
    previous = None
    for le, count in buckets.items():
        if previous is not None and count < previous:
            raise MetricsError(
                f"histogram {name}{format_labels(dict(sample['labels']))}: bucket "
                f"le={le} count {count} below preceding {previous} (not monotone)"
            )
        previous = count
    top = buckets.get("+Inf")
    if top is not None and top != sample["count"]:
        raise MetricsError(
            f"histogram {name}{format_labels(dict(sample['labels']))}: _count "
            f"{sample['count']} != top bucket {top}"
        )


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` docstring (backslash and newline only -- quotes
    are legal in help text)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


# ----------------------------------------------------------------------
# the process-wide default registry
# ----------------------------------------------------------------------
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry every instrumented site writes to."""
    return _registry


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Install ``reg`` as the process-wide registry; returns the previous
    one (tests swap in a fresh registry and restore the old)."""
    global _registry
    previous = _registry
    _registry = reg
    return previous


#: Every instrumented family outside the trace bridge, fetched by the
#: sites with :func:`family`:
#: name -> (kind, label names, histogram buckets or None for
#: :data:`LATENCY_BUCKETS`, help).
FAMILIES: dict[str, tuple[str, tuple[str, ...], tuple[float, ...] | None, str]] = {
    "repro_serve_requests_total": (
        "counter", ("model",), None,
        "Requests accepted into the scheduler queue."),
    "repro_serve_rejected_total": (
        "counter", ("reason",), None,
        "Requests rejected at submit (queue_full is the backpressure signal)."),
    "repro_serve_requests_failed_total": (
        "counter", ("model",), None,
        "Requests resolved with RequestFailedError after a dead flush."),
    "repro_serve_request_latency_seconds": (
        "histogram", ("model", "phase"), None,
        "Per-request simulated latency, split into queue wait vs compute."),
    "repro_serve_batch_occupancy_ratio": (
        "histogram", ("model",), RATIO_BUCKETS,
        "Images per packed flush as a fraction of the packing capacity."),
    "repro_serve_queue_depth": (
        "gauge", (), None,
        "Queued (unflushed) requests across all models."),
    "repro_fleet_retried_requests_total": (
        "counter", ("model",), None,
        "Requests re-dispatched to a surviving replica during whole-batch "
        "failover (one increment per request per retry attempt)."),
    "repro_fleet_failovers_total": (
        "counter", ("model",), None,
        "Packed flushes re-dispatched to a surviving replica after replica loss."),
    "repro_serve_admitted_total": (
        "counter", ("model", "priority"), None,
        "Requests admitted by the serving loop, by priority class."),
    "repro_serve_shed_total": (
        "counter", ("model", "reason"), None,
        "Requests shed at admission (overload = wait estimate past the SLO)."),
    "repro_serve_evicted_total": (
        "counter", ("model", "priority"), None,
        "Queued requests evicted (hopeless SLO deadline or displaced)."),
    "repro_serve_loop_events_total": (
        "counter", ("kind",), None,
        "Events dispatched by the serving loop, by kind."),
    "repro_serve_loop_recovered_completions_total": (
        "counter", (), None,
        "Flush completions delivered by the watchdog after the completion "
        "event was lost."),
    "repro_serve_queue_wait_estimate_seconds": (
        "histogram", ("model",), None,
        "Admission-control queue-wait estimate at each arrival."),
    "repro_client_transitions_total": (
        "counter", ("state",), None,
        "Client session state-machine transitions, by destination state."),
    "repro_recovery_enclave_restarts_total": (
        "counter", ("ecall", "replica"), None,
        "Enclave restarts performed by the supervisor, by failed "
        "ECALL and fleet replica."),
    "repro_recovery_backoff_seconds_total": (
        "counter", ("replica",), None,
        "Simulated seconds charged as restart backoff, by fleet replica."),
    "repro_fleet_joins_total": (
        "counter", ("replica",), None,
        "Replicas joined via quote-verified sealed-key migration."),
    "repro_fleet_dispatch_images_total": (
        "counter", ("model", "replica"), None,
        "Images dispatched to each fleet replica, by model."),
    "repro_fleet_retirements_total": (
        "counter", ("replica",), None,
        "Replicas retired from rotation after unrecoverable failures."),
    "repro_fleet_replicas": (
        "gauge", (), None,
        "Live enclave replicas in the serving fleet."),
    "repro_fault_fires_total": (
        "counter", ("site",), None,
        "Injected faults fired from the armed plan, by site."),
    "repro_sgx_ecall_total": (
        "counter", ("ecall",), None,
        "ECALL invocations at the trusted boundary, by entry point."),
    "repro_sgx_ecall_bytes_total": (
        "counter", ("direction", "ecall"), None,
        "Bytes marshalled across the boundary, by entry point and direction."),
    "repro_sgx_epc_evictions_total": (
        "counter", (), None,
        "EPC pages encrypted and evicted to untrusted memory (EWB)."),
    "repro_sgx_epc_loads_total": (
        "counter", (), None,
        "EPC pages decrypted and reloaded on demand (ELD)."),
    "repro_sgx_epc_faults_total": (
        "counter", (), None,
        "EPC page faults observed by the untrusted OS."),
    "repro_he_noise_budget_bits": (
        "gauge", ("layer", "model"), None,
        "Estimated remaining invariant-noise budget per encrypted "
        "layer (SGX refresh resets each layer to fresh noise)."),
}


def family(name: str) -> MetricFamily | _NullMetric:
    """The :data:`FAMILIES` entry ``name`` in the process-wide registry
    (get-or-create, so a registry swapped in by a test sees it too)."""
    kind, labelnames, buckets, help_text = FAMILIES[name]
    return _registry._family(name, help_text, kind, labelnames, buckets)


class use_registry:
    """Context manager: swap the process registry for a block.

    ::

        with metrics.use_registry(MetricsRegistry()) as reg:
            run_workload()
            snapshot = reg.collect()
    """

    def __init__(self, reg: MetricsRegistry | None = None) -> None:
        self.registry = reg if reg is not None else MetricsRegistry()
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info) -> None:
        assert self._previous is not None
        set_registry(self._previous)
