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

Levels:
    off: no passes; the compiled graph is the reference graph.
    safe: zero_tap, fold_bias, pack_crossing, hoist_ntt, scalar_encrypt
        with an 8-bit noise margin on budget-sensitive rewrites.
    aggressive: safe's passes at a 0-bit margin (packing folds larger
        batches) plus advisory select_parameters.
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
    "safe": ("zero_tap", "fold_bias", "pack_crossing", "hoist_ntt", "scalar_encrypt"),
    "aggressive": (
        "zero_tap",
        "fold_bias",
        "pack_crossing",
        "hoist_ntt",
        "scalar_encrypt",
        "select_parameters",
    ),
}

FAULT_SITE = "graph.pass"

_ENV_LEVEL = "REPRO_GRAPH_OPT"

_active_level: str | None = None
_active_passes: tuple[str, ...] | None = None


def default_level() -> str:
    """Level implied by ``REPRO_GRAPH_OPT`` (off when unset or invalid)."""
    raw = os.environ.get(_ENV_LEVEL, "").strip().lower()
    return raw if raw in LEVELS else "off"


def active_level() -> str:
    return _active_level if _active_level is not None else default_level()


def active_passes() -> tuple[str, ...]:
    if _active_passes is not None:
        return _active_passes
    return PASS_PORTFOLIO[active_level()]


def margin_bits_for(level: str) -> float:
    return 0.0 if level == "aggressive" else 8.0


def configure(
    level: str | None, passes: tuple[str, ...] | None = None
) -> tuple[str | None, tuple[str, ...] | None]:
    """Install a level (and optionally an explicit pass selection)
    process-wide; ``None`` restores the env-derived default.  Returns the
    previous ``(level, passes)`` pair for restoring."""
    global _active_level, _active_passes
    if level is not None and level not in LEVELS:
        raise PipelineError(
            f"graph optimizer level must be one of {LEVELS}, got {level!r}"
        )
    if passes is not None:
        unknown = sorted(set(passes) - set(graph_passes.PASSES))
        if unknown:
            raise PipelineError(f"unknown graph passes {unknown}")
    previous = (_active_level, _active_passes)
    _active_level = level
    _active_passes = tuple(passes) if passes is not None else None
    record_active_level()
    return previous


def _restore(previous: tuple[str | None, tuple[str, ...] | None]) -> None:
    global _active_level, _active_passes
    _active_level, _active_passes = previous
    record_active_level()


@contextmanager
def use(level: str | None, passes: tuple[str, ...] | None = None):
    """Temporarily install a level / pass selection (tests, benches)."""
    previous = configure(level, passes)
    try:
        yield
    finally:
        _restore(previous)


def cache_key() -> tuple[str, tuple[str, ...]]:
    """Key pipelines use to invalidate their compiled-graph cache."""
    return (active_level(), active_passes())


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
    graph: ir.InferenceGraph,
    level: str | None = None,
    passes: tuple[str, ...] | None = None,
) -> tuple[ir.InferenceGraph, CompileReport]:
    """Compile ``graph``: clone, run the selected passes, report.

    The input graph is never mutated.  The selection (explicit ``passes``
    or the level's portfolio) picks *which* passes run; sequencing always
    follows :data:`repro.graph.passes.PASS_ORDER` so compilation is
    order-independent and idempotent.  Any exception from a pass degrades
    the compile to the reference graph.
    """
    resolved_level = active_level() if level is None else level
    if resolved_level not in LEVELS:
        raise PipelineError(
            f"graph optimizer level must be one of {LEVELS}, got {resolved_level!r}"
        )
    if passes is not None:
        selected = set(passes)
    elif level is None:
        selected = set(active_passes())
    else:
        selected = set(PASS_PORTFOLIO[resolved_level])
    unknown = sorted(selected - set(graph_passes.PASSES))
    if unknown:
        raise PipelineError(f"unknown graph passes {unknown}")
    names = tuple(sorted(selected, key=graph_passes.PASS_ORDER.index))
    if not names:
        return graph.clone(), CompileReport(level=resolved_level, requested=())

    from repro import faults

    margin = margin_bits_for(resolved_level)
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
            level=resolved_level,
            error=str(exc),
        )
        return graph.clone(), CompileReport(
            level=resolved_level,
            requested=names,
            degraded=True,
            failure=f"{current}: {exc}",
        )
    return optimized, CompileReport(
        level=resolved_level,
        requested=names,
        applied=tuple(applied),
        refused=tuple(refused),
        parameter_advice=optimized.meta.get("parameter_advice"),
    )
