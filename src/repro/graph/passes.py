"""The one rewrite of the inference-graph compiler.

``pack_crossing`` is the one rewrite that changes the graph; the exact
rewrites that only restate a fact about one operand (zero weight columns,
a bias that fits the accumulator's slack, a constant-polynomial plaintext,
a squared operand, the packing monomials) are not passes: the code that
builds the operand applies them unconditionally (DESIGN.md §16).

The pass mutates the graph in place and returns ``None`` when it fired, or
a human-readable *refusal reason* when its preconditions do not hold.
Refusing is the normal path, not an error -- it refuses on a graph with no
scalar-layout crossing.  It only rewrites ``attrs``; the executor owns the
actual ciphertext work.  The rewrite is exact -- the optimized execution
stays bit-identical to the reference graph -- and idempotent.
"""

from __future__ import annotations

from repro.graph import ir

#: Noise budget (bits) the packed crossing leaves untouched above its fold.
MARGIN_BITS = 8.0


def pack_crossing(graph: ir.InferenceGraph) -> str | None:
    """Fold the flattened feature-map tensor into polynomial coefficients
    at the enclave crossing: runs of up to ``pack_max_batch`` values share
    one ciphertext, shrinking the inbound crossing payload (bytes crossed
    and trusted-side decrypts) from one ciphertext per value to
    ``ceil(N / chunk)`` ciphertexts.

    Packing costs up to ``log2(chunk)`` bits of noise budget (the monomial
    shift-and-sum), so the pass caps ``chunk`` at what the conv layer's
    remaining budget can absorb above :data:`MARGIN_BITS` (and at the ring
    degree) and refuses when even ``chunk = 2`` does not fit.  Also refuses
    for graphs with no scalar-layout crossing (pure-HE; the ``simd``
    graph's ``crossing_lanes`` and the serving graphs' ``crossing_image``,
    already packed), for the per-pixel negative control
    (each crossing carries a single value; there is nothing to fold) and
    for multi-block graphs.
    """
    if graph.meta.get("mode") == "per_pixel":
        return "per-pixel crossings carry one value each; nothing to fold"
    crossings = [i for i, node in enumerate(graph.nodes) if node.op == "crossing"]
    if not crossings:
        return (
            "no scalar-layout enclave crossing to pack (a pure-HE graph "
            "never crosses; a lane- or image-layout crossing already "
            "carries many values per ciphertext)"
        )
    if len(crossings) > 1:
        return (
            f"{len(crossings)} crossings: per-block packing caps are not "
            "modelled, so a multi-block graph keeps its unpacked crossings"
        )
    crossing = graph.nodes[crossings[0]]
    conv = graph.nodes[crossings[0] - 1]
    headroom = conv.budget_bits - MARGIN_BITS
    cap = int(min(graph.params.poly_degree, 2.0 ** min(max(headroom, 0.0), 30.0)))
    if cap < 2:
        return (
            f"conv leaves {conv.budget_bits:.1f} budget bits; packing needs "
            f"log2(B) above the {MARGIN_BITS:.1f}-bit margin"
        )
    crossing.attrs["packed"] = True
    crossing.attrs["pack_max_batch"] = cap
    return None
