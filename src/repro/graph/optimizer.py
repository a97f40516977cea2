"""Graph-optimizer configuration and compiler.

Mirrors the FUSED/REFERENCE switch in :mod:`repro.he.kernels`: a
process-wide level (``off``/``safe``/``aggressive``), an env override
(``REPRO_GRAPH_OPT``), a ``use()`` context manager for tests, a one-hot
gauge recording the active level, and — the part the kernel layer does
not need — graceful degradation: a pass that raises mid-compile (the
``graph.pass`` fault site) discards the partially rewritten graph and
falls back to the unoptimized reference graph, counted by the
``repro_graph_degradations_total`` metric.  Execution of a degraded
compile is bit-identical to the optimized one, because every pass is
bit-exact by contract.

The level is the whole configuration: it fixes which passes run
(:data:`PASS_PORTFOLIO`) and their noise margin.  The operand-local exact
rewrites run at every level, ``off`` included, because the code that builds
each operand applies them (DESIGN.md §16).

Levels:
    off: no passes; the compiled graph is the reference graph.
    safe: pack_crossing, keeping an 8-bit noise margin.
    aggressive: pack_crossing at a 0-bit margin (folds larger batches)
        plus advisory select_parameters.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import GraphPassError, PipelineError
from repro.graph import ir
from repro.graph import passes as graph_passes
from repro.obs import recorder

LEVELS: tuple[str, ...] = ("off", "safe", "aggressive")

PASS_PORTFOLIO: dict[str, tuple[str, ...]] = {
    "off": (),
    "safe": ("pack_crossing",),
    "aggressive": ("pack_crossing", "select_parameters"),
}

FAULT_SITE = "graph.pass"

_ENV_LEVEL = "REPRO_GRAPH_OPT"

_active_level: str | None = None


def _check_level(level: str, source: str = "graph optimizer level") -> str:
    if level not in LEVELS:
        raise PipelineError(f"{source} must be one of {LEVELS}, got {level!r}")
    return level


def default_level() -> str:
    """Level named by ``REPRO_GRAPH_OPT`` (``off`` when unset or empty).

    Raises:
        PipelineError: the variable holds anything else -- a mistyped CI
            switch must not silently test the default configuration.
    """
    raw = os.environ.get(_ENV_LEVEL, "").strip().lower()
    return _check_level(raw, _ENV_LEVEL) if raw else "off"


def active_level() -> str:
    return _active_level if _active_level is not None else default_level()


def margin_bits_for(level: str) -> float:
    return 0.0 if level == "aggressive" else 8.0


def configure(level: str | None) -> str | None:
    """Install a level process-wide; ``None`` restores the env-derived
    default.  Returns the previous setting for restoring."""
    global _active_level
    if level is not None:
        _check_level(level)
    previous = _active_level
    _active_level = level
    record_active_level()
    return previous


@contextmanager
def use(level: str | None):
    """Temporarily install a level (tests, benches)."""
    previous = configure(level)
    try:
        yield
    finally:
        configure(previous)


def record_active_level() -> None:
    """One-hot gauge of the active level (matches the kernel-profile gauge)."""
    from repro.obs import metrics

    gauge = metrics.family("repro_graph_opt_level")
    current = active_level()
    for level in LEVELS:
        gauge.labels(level=level).set(1.0 if level == current else 0.0)


def _record_degradation(pass_name: str | None) -> None:
    from repro.obs import metrics

    metrics.family("repro_graph_degradations_total").labels(
        graph_pass=pass_name or "unknown"
    ).inc()


@dataclass(frozen=True)
class CompileReport:
    """What the compiler did to one graph."""

    level: str
    requested: tuple[str, ...]
    applied: tuple[str, ...] = ()
    refused: tuple[tuple[str, str], ...] = ()
    degraded: bool = False
    failure: str | None = None
    parameter_advice: object = None
    #: Measured evidence attached after the fact by :meth:`cite` -- not
    #: part of the compile's identity, hence excluded from comparisons.
    measured: dict | None = field(default=None, compare=False)

    @property
    def label(self) -> str:
        return f"{self.level}:degraded" if self.degraded else self.level

    def refusal(self, name: str) -> str | None:
        return dict(self.refused).get(name)

    def cite(self, profile, baseline=None) -> "CompileReport":
        """Attach measured per-op costs (and savings vs a baseline run).

        ``profile`` is a :class:`repro.obs.profile.ProfileReport` from
        executions of this compile; ``baseline`` one from the reference
        (``off``) compile.  The report then quotes *measured* savings
        instead of the passes' estimated noise-cost arithmetic.  Mutates
        in place (``object.__setattr__`` -- the report is frozen) and
        returns ``self`` for chaining.
        """
        evidence = {
            "pipelines": profile.pipelines,
            "per_op_elapsed_s": {
                op: agg["elapsed_s"] / profile.pipelines
                for op, agg in profile.per_op().items()
            },
            "coverage": profile.coverage(),
        }
        if baseline is not None:
            evidence["savings_vs_reference_s"] = profile.savings_vs(baseline)
        object.__setattr__(self, "measured", evidence)
        return self


def compile_graph(
    graph: ir.InferenceGraph, level: str | None = None
) -> tuple[ir.InferenceGraph, CompileReport]:
    """Compile ``graph``: clone, run the level's passes, report.

    The input graph is never mutated.  ``level`` defaults to the active
    one; its passes run in :data:`PASS_PORTFOLIO` order.  Any exception
    from a pass degrades the compile to the reference graph.
    """
    level = _check_level(active_level() if level is None else level)
    names = PASS_PORTFOLIO[level]
    if not names:
        return graph.clone(), CompileReport(level=level, requested=())

    from repro import faults

    margin = margin_bits_for(level)
    optimized = graph.clone()
    applied: list[str] = []
    refused: list[tuple[str, str]] = []
    current: str | None = None
    try:
        for name in names:
            current = name
            graph_pass = graph_passes.build(name, margin_bits=margin)
            faults.inject(FAULT_SITE, GraphPassError, name=name)
            reason = graph_pass.run(optimized)
            # A refusal is the normal, static outcome of a pass on a graph
            # shape it cannot rewrite exactly; it belongs in the report, not
            # in the flight ring of operational events.
            if reason is None:
                applied.append(name)
            else:
                refused.append((name, reason))
    except Exception as exc:  # degrade: reference graph, bit-identical
        _record_degradation(current)
        recorder.record(
            "graph.degraded",
            severity="error",
            graph_pass=current,
            level=level,
            error=str(exc),
        )
        return graph.clone(), CompileReport(
            level=level,
            requested=names,
            degraded=True,
            failure=f"{current}: {exc}",
        )
    return optimized, CompileReport(
        level=level,
        requested=names,
        applied=tuple(applied),
        refused=tuple(refused),
        parameter_advice=optimized.meta.get("parameter_advice"),
    )
