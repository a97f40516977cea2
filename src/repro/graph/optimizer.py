"""The graph-optimizer compiler.

A level (``off``/``safe``) is an argument of one compile: each pipeline
compiles its graph once, at construction, at the level it was built with
(DESIGN.md §16).  A pass that raises mid-compile (the ``graph.pass`` fault
site) discards the partially rewritten graph and falls back to the
unoptimized reference graph, counted by the
``repro_graph_degradations_total`` metric.  Execution of a degraded
compile is bit-identical to the optimized one, because the rewrite is
bit-exact by contract.

The level is the whole configuration.  The operand-local exact rewrites
run at every level, ``off`` included, because the code that builds each
operand applies them (DESIGN.md §16).

Levels:
    off: no rewrite; the compiled graph is the reference graph.
    safe: ``pack_crossing``, keeping :data:`repro.graph.passes.MARGIN_BITS`
        of noise budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphPassError, PipelineError
from repro.graph import ir
from repro.graph import passes as graph_passes
from repro.obs import recorder

LEVELS: tuple[str, ...] = ("off", "safe")

#: The one pass ``safe`` runs; also the ``graph.pass`` fault site's ``name``.
PACK_CROSSING = "pack_crossing"

FAULT_SITE = "graph.pass"


def check_level(level: str) -> str:
    """``level`` itself, or :class:`PipelineError` naming :data:`LEVELS`."""
    if level not in LEVELS:
        raise PipelineError(f"graph_optimizer must be one of {LEVELS}, got {level!r}")
    return level


@dataclass(frozen=True)
class CompileReport:
    """What the compiler did to one graph."""

    level: str
    requested: tuple[str, ...]
    applied: tuple[str, ...] = ()
    refused: tuple[tuple[str, str], ...] = ()
    degraded: bool = False
    failure: str | None = None

    @property
    def label(self) -> str:
        return f"{self.level}:degraded" if self.degraded else self.level

    def refusal(self, name: str) -> str | None:
        return dict(self.refused).get(name)


def compile_graph(
    graph: ir.InferenceGraph, level: str
) -> tuple[ir.InferenceGraph, CompileReport]:
    """Compile ``graph``: clone, run ``pack_crossing`` at ``safe``, report.

    The input graph is never mutated.  Any exception from the pass
    degrades the compile to the reference graph.
    """
    level = check_level(level)
    if level == "off":
        return graph.clone(), CompileReport(level=level, requested=())

    from repro import faults

    requested = (PACK_CROSSING,)
    optimized = graph.clone()
    try:
        faults.inject(FAULT_SITE, GraphPassError, name=PACK_CROSSING)
        reason = graph_passes.pack_crossing(optimized)
    except Exception as exc:  # degrade: reference graph, bit-identical
        from repro.obs import metrics

        metrics.family("repro_graph_degradations_total").labels(
            graph_pass=PACK_CROSSING
        ).inc()
        recorder.record(
            "graph.degraded",
            severity="error",
            graph_pass=PACK_CROSSING,
            level=level,
            error=str(exc),
        )
        return graph.clone(), CompileReport(
            level=level,
            requested=requested,
            degraded=True,
            failure=f"{PACK_CROSSING}: {exc}",
        )
    # A refusal is the normal, static outcome of the pass on a graph shape
    # it cannot rewrite exactly; it belongs in the report, not in the
    # flight ring of operational events.
    if reason is not None:
        return optimized, CompileReport(
            level=level, requested=requested, refused=((PACK_CROSSING, reason),)
        )
    return optimized, CompileReport(level=level, requested=requested, applied=requested)
