"""The one executor, and the graph-level HE optimizer in front of it.

``repro.graph`` compiles every HE chain in the repository (the four
encrypted pipelines, ``EdgeServer.infer``, the scheduler's packed flush)
into a small inference-graph IR annotated with multiplicative levels and
noise budgets from :class:`repro.he.noise.NoiseEstimator`, applies at
level ``safe`` the one rewrite that changes the graph -- budget-gated
coefficient packing of a scalar-layout enclave crossing -- and executes the
compiled graph bit-identically to the unoptimized reference, the same
contract the kernels keep with the oracle (:mod:`repro.he.oracle`).  Exact rewrites that are facts about a single operand are not
graph passes: they run unconditionally where the operand is built
(``heops.encode_*_weights``, ``Encryptor.encrypt``, ``Evaluator.square``,
``pack_coefficients``).

Modules:
    ir: the :class:`InferenceGraph` IR and one builder per chain kind.
    passes: ``pack_crossing``, its noise margin and its refusal conditions.
    optimizer: the compiler -- one graph at one level (off/safe) --
        with fault-site degradation, and compile reports.
    executor: walks a compiled graph over an explicit ``Resources`` value
        through one op table.
"""

from repro.graph.ir import (
    BUILDERS,
    GraphNode,
    InferenceGraph,
    build_cryptonets_graph,
    build_deep_graph,
    build_graph,
    build_hybrid_graph,
    build_served_graph,
    build_simd_graph,
)
from repro.graph.optimizer import LEVELS, CompileReport, compile_graph

__all__ = [
    "BUILDERS",
    "GraphNode",
    "InferenceGraph",
    "build_cryptonets_graph",
    "build_deep_graph",
    "build_graph",
    "build_hybrid_graph",
    "build_served_graph",
    "build_simd_graph",
    "LEVELS",
    "CompileReport",
    "compile_graph",
]
