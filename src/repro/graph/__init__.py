"""The one executor and the inference-graph IR it walks.

``repro.graph`` builds every HE chain in the repository (the four
encrypted pipelines, ``EdgeServer.infer``, the scheduler's packed flush)
as a small inference-graph IR annotated with multiplicative levels and
noise budgets from :class:`repro.he.noise.NoiseEstimator`, and executes
each graph as built, performing the HE ops, ECALLs and RNG draws of the
hand-written chain it replaced.  Exact rewrites that are facts about a
single operand are not graph rewrites: they run unconditionally where the
operand is built (``heops.encode_*_weights``, ``Encryptor.encrypt``,
``Evaluator.square``, ``pack_coefficients``).

Modules:
    ir: the :class:`InferenceGraph` IR and one builder per chain kind.
    executor: walks a graph over an explicit ``Resources`` value
        through one op table.
"""

from repro.graph.ir import (
    BUILDERS,
    GraphNode,
    InferenceGraph,
    build_cryptonets_graph,
    build_graph,
    build_hybrid_graph,
    build_served_graph,
    build_simd_graph,
)

__all__ = [
    "BUILDERS",
    "GraphNode",
    "InferenceGraph",
    "build_cryptonets_graph",
    "build_graph",
    "build_hybrid_graph",
    "build_served_graph",
    "build_simd_graph",
]
