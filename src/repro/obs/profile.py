"""Graph-attributed cost profiler: per-node measured cost from traces.

The inference-graph IR annotates each node with *estimated* noise costs;
this module closes the loop with *measured* ones.  The graph executor stamps
each stage span with the :class:`~repro.graph.ir.GraphNode` signature it
executed (plus the node's op, level and noise annotations), and
:func:`profile_from_trace` folds a finished pipeline trace into a
:class:`ProfileReport` keyed by node signature: virtual-clock real and
overhead seconds, ECALL count and bytes, and noise-headroom watermarks
(the minimum static headroom annotation and the minimum *measured*
invariant noise budget seen at decrypt).

Reports merge across requests into per-op aggregates, and
``tools/obsctl.py`` renders them as a sorted cost table plus per-request
trace timelines.

Reconciliation (same spirit as :func:`repro.obs.tracer.reconcile`): the
per-node costs attributed by a report must sum to the pipeline spans'
wall clock -- :meth:`ProfileReport.reconcile` enforces *attributed <=
wall* within tolerance, and :meth:`ProfileReport.coverage` reports the
attributed fraction so tests can pin it at ~1.0 for executor-driven
pipelines (every measure window sits inside a stage span).

The profiler is read-only over span trees: it runs after the fact, never
touches the clock, RNG or ciphertexts, and profiled vs unprofiled runs
are bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Span


@dataclass
class NodeProfile:
    """Aggregate measured cost of one graph node (or pipeline stage).

    Attributes:
        key: the node signature (``GraphNode.signature()`` as a string)
            for executor-driven stages, else ``"stage:<name>"``.
        op: node op (``conv``, ``crossing``, ...) or the stage name.
        stage: the stage-span name the cost was measured under.
        count: executions folded into this aggregate.
        real_s / overhead_s: summed virtual-clock deltas.
        ecalls: enclave crossings under this node's stage spans.
        ecall_bytes: marshalled bytes (in + out) across those crossings.
        level: modulus-chain level annotation, when stamped.
        headroom_bits: minimum *static* noise-headroom annotation seen.
        noise_budget_bits: minimum *measured* invariant noise budget seen
            (stamped at decrypt stages) -- the watermark.
    """

    key: str
    op: str
    stage: str
    count: int = 0
    real_s: float = 0.0
    overhead_s: float = 0.0
    ecalls: int = 0
    ecall_bytes: int = 0
    level: int | None = None
    headroom_bits: float | None = None
    noise_budget_bits: float | None = None

    @property
    def elapsed_s(self) -> float:
        return self.real_s + self.overhead_s

    def fold(self, other: "NodeProfile") -> None:
        """Merge ``other`` (same key) into this aggregate."""
        if other.key != self.key:
            raise ReproError(f"cannot fold {other.key!r} into {self.key!r}")
        self.count += other.count
        self.real_s += other.real_s
        self.overhead_s += other.overhead_s
        self.ecalls += other.ecalls
        self.ecall_bytes += other.ecall_bytes
        if other.level is not None:
            self.level = other.level
        for attr in ("headroom_bits", "noise_budget_bits"):
            theirs = getattr(other, attr)
            if theirs is not None:
                mine = getattr(self, attr)
                setattr(self, attr, theirs if mine is None else min(mine, theirs))

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "op": self.op,
            "stage": self.stage,
            "count": self.count,
            "real_s": self.real_s,
            "overhead_s": self.overhead_s,
            "elapsed_s": self.elapsed_s,
            "ecalls": self.ecalls,
            "ecall_bytes": self.ecall_bytes,
            "level": self.level,
            "headroom_bits": self.headroom_bits,
            "noise_budget_bits": self.noise_budget_bits,
        }


def _stage_profile(stage: "Span") -> NodeProfile:
    attrs = stage.attrs
    key = attrs.get("node_signature") or f"stage:{stage.name}"
    ecalls = stage.ecalls()
    prof = NodeProfile(
        key=str(key),
        op=str(attrs.get("node_op", stage.name)),
        stage=stage.name,
        count=1,
        real_s=stage.real_s,
        overhead_s=stage.overhead_s,
        ecalls=len(ecalls),
        ecall_bytes=sum(
            int(e.attrs.get("bytes_in", 0)) + int(e.attrs.get("bytes_out", 0))
            for e in ecalls
        ),
    )
    if "node_level" in attrs:
        prof.level = int(attrs["node_level"])
    if "node_headroom_bits" in attrs:
        prof.headroom_bits = float(attrs["node_headroom_bits"])
    if "noise_budget_bits" in attrs:
        prof.noise_budget_bits = float(attrs["noise_budget_bits"])
    return prof


class ProfileReport:
    """Per-node measured costs merged across one or more pipeline traces."""

    def __init__(self) -> None:
        self.nodes: dict[str, NodeProfile] = {}
        self.pipelines = 0
        self.wall_real_s = 0.0
        self.wall_overhead_s = 0.0
        self.attributed_real_s = 0.0
        self.attributed_overhead_s = 0.0

    # -- construction ---------------------------------------------------
    @classmethod
    def from_trace(cls, root: "Span") -> "ProfileReport":
        report = cls()
        report.add_trace(root)
        return report

    @classmethod
    def from_traces(cls, roots: Iterable["Span"]) -> "ProfileReport":
        report = cls()
        for root in roots:
            report.add_trace(root)
        return report

    def add_trace(self, root: "Span") -> "ProfileReport":
        """Fold one finished pipeline span tree into the report."""
        self.pipelines += 1
        self.wall_real_s += root.real_s
        self.wall_overhead_s += root.overhead_s
        for stage in root.stages():
            prof = _stage_profile(stage)
            self.attributed_real_s += prof.real_s
            self.attributed_overhead_s += prof.overhead_s
            existing = self.nodes.get(prof.key)
            if existing is None:
                self.nodes[prof.key] = prof
            else:
                existing.fold(prof)
        return self

    def merge(self, other: "ProfileReport") -> "ProfileReport":
        """Fold ``other``'s aggregates into this report."""
        self.pipelines += other.pipelines
        self.wall_real_s += other.wall_real_s
        self.wall_overhead_s += other.wall_overhead_s
        self.attributed_real_s += other.attributed_real_s
        self.attributed_overhead_s += other.attributed_overhead_s
        for key, prof in other.nodes.items():
            existing = self.nodes.get(key)
            if existing is None:
                self.nodes[key] = NodeProfile(**prof.__dict__)
            else:
                existing.fold(prof)
        return self

    # -- invariants -----------------------------------------------------
    def reconcile(self, rel_tol: float = 1e-6, abs_tol: float = 1e-9) -> None:
        """Per-node costs must sum to (at most) the pipelines' wall clock.

        Same spirit as :func:`repro.obs.tracer.reconcile`: stage spans are
        disjoint sub-intervals of their pipeline's clock window, so the
        attributed total can never exceed the wall total.
        """
        for kind, attributed, wall in (
            ("real", self.attributed_real_s, self.wall_real_s),
            ("overhead", self.attributed_overhead_s, self.wall_overhead_s),
        ):
            tol = max(abs_tol, rel_tol * max(abs(wall), abs(attributed)))
            if attributed > wall + tol:
                raise ReproError(
                    f"profile: attributed {kind} {attributed:.9f}s exceeds "
                    f"pipeline wall {wall:.9f}s across {self.pipelines} traces"
                )

    def coverage(self) -> float:
        """Fraction of pipeline wall clock attributed to nodes (<= 1)."""
        wall = self.wall_real_s + self.wall_overhead_s
        if wall <= 0.0:
            return 1.0
        return (self.attributed_real_s + self.attributed_overhead_s) / wall

    # -- views ----------------------------------------------------------
    def rows(self) -> list[NodeProfile]:
        """Node aggregates, most expensive (elapsed) first."""
        return sorted(
            self.nodes.values(), key=lambda n: (-n.elapsed_s, n.key)
        )

    def per_op(self) -> dict[str, dict]:
        """Aggregates folded one level further, keyed by node op."""
        ops: dict[str, dict] = {}
        for node in self.rows():
            agg = ops.setdefault(
                node.op,
                {"count": 0, "real_s": 0.0, "overhead_s": 0.0, "elapsed_s": 0.0,
                 "ecalls": 0, "ecall_bytes": 0},
            )
            agg["count"] += node.count
            agg["real_s"] += node.real_s
            agg["overhead_s"] += node.overhead_s
            agg["elapsed_s"] += node.elapsed_s
            agg["ecalls"] += node.ecalls
            agg["ecall_bytes"] += node.ecall_bytes
        return ops

    def to_dict(self) -> dict:
        return {
            "pipelines": self.pipelines,
            "wall_real_s": self.wall_real_s,
            "wall_overhead_s": self.wall_overhead_s,
            "attributed_real_s": self.attributed_real_s,
            "attributed_overhead_s": self.attributed_overhead_s,
            "coverage": self.coverage(),
            "nodes": [n.to_dict() for n in self.rows()],
        }

    # -- rendering ------------------------------------------------------
    def render_table(self, top: int | None = None) -> str:
        """Sorted fixed-width cost table (what ``obsctl costs`` prints)."""
        rows = self.rows()
        if top is not None:
            rows = rows[:top]
        header = (
            f"{'op':<18} {'stage':<24} {'n':>4} {'real_ms':>10} "
            f"{'ovh_ms':>10} {'elapsed_ms':>11} {'ecalls':>6} "
            f"{'kB':>8} {'headroom':>9}"
        )
        lines = [header, "-" * len(header)]
        for node in rows:
            headroom = (
                "-"
                if node.noise_budget_bits is None and node.headroom_bits is None
                else f"{(node.noise_budget_bits if node.noise_budget_bits is not None else node.headroom_bits):.1f}"
            )
            lines.append(
                f"{node.op:<18.18} {node.stage:<24.24} {node.count:>4} "
                f"{node.real_s * 1e3:>10.3f} {node.overhead_s * 1e3:>10.3f} "
                f"{node.elapsed_s * 1e3:>11.3f} {node.ecalls:>6} "
                f"{node.ecall_bytes / 1024:>8.1f} {headroom:>9}"
            )
        lines.append(
            f"{self.pipelines} pipeline(s); attributed "
            f"{self.attributed_real_s + self.attributed_overhead_s:.6f}s of "
            f"{self.wall_real_s + self.wall_overhead_s:.6f}s wall "
            f"({self.coverage() * 100:.2f}% coverage)"
        )
        return "\n".join(lines)


def profile_from_trace(root: "Span") -> ProfileReport:
    """One-shot :class:`ProfileReport` for a single pipeline trace."""
    return ProfileReport.from_trace(root)


def profile_from_traces(roots: Iterable["Span"]) -> ProfileReport:
    """Merged :class:`ProfileReport` across many pipeline traces."""
    return ProfileReport.from_traces(roots)


def spans_without_node(root: "Span") -> list["Span"]:
    """Stage spans the graph executor did not stamp a node on (CI asserts
    empty for every serving trace: a stage without ``node_signature`` is
    an HE chain running outside :mod:`repro.graph`)."""
    return [
        span
        for span in root.walk()
        if span.kind == "stage" and "node_signature" not in span.attrs
    ]


#: Span attrs surfaced on timeline lines, in render order.
_TIMELINE_ATTRS = (
    "trace_id",
    "trace_ids",
    "request_id",
    "replica",
    "generation",
    "model",
    "node_op",
    "unit",
    "worker",
)


def render_timeline(root: "Span", *, indent: int = 2) -> str:
    """Per-request trace timeline: nested spans with virtual-time offsets.

    Offsets are reconstructed by accumulating sibling elapsed time within
    each parent -- exact for this system's sequential virtual clock.
    """
    lines: list[str] = []

    def walk(span: "Span", depth: int, start: float) -> None:
        annotated = " ".join(
            f"{k}={span.attrs[k]}" for k in _TIMELINE_ATTRS if k in span.attrs
        )
        pad = " " * (depth * indent)
        lines.append(
            f"{pad}[{start * 1e3:9.3f}ms +{span.elapsed_s * 1e3:8.3f}ms] "
            f"{span.kind}:{span.name}" + (f"  ({annotated})" if annotated else "")
        )
        offset = start
        for child in span.children:
            walk(child, depth + 1, offset)
            offset += child.elapsed_s

    walk(root, 0, 0.0)
    return "\n".join(lines)


__all__ = [
    "NodeProfile",
    "ProfileReport",
    "profile_from_trace",
    "profile_from_traces",
    "render_timeline",
    "spans_without_node",
]
