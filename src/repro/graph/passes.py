"""The two passes of the inference-graph compiler.

``pack_crossing`` is the one rewrite that changes the graph; the exact
rewrites that only restate a fact about one operand (zero weight columns,
a bias that fits the accumulator's slack, a constant-polynomial plaintext,
a squared operand, the packing monomials) are not passes: the code that
builds the operand applies them unconditionally (DESIGN.md §16).

Every pass follows the same contract:

* ``run(graph)`` mutates the graph in place and returns ``None`` when it
  fired, or a human-readable *refusal reason* when its preconditions do
  not hold.  Refusing is the normal path, not an error — e.g.
  ``pack_crossing`` refuses on a graph with no scalar-layout crossing.
* Passes only rewrite ``attrs``; the executor owns the actual ciphertext
  work.  Each rewrite is exact — the optimized execution must stay
  bit-identical to the reference graph — so a pass that can only
  *approximately* preserve results must refuse instead.
* Passes are idempotent: running one twice leaves the graph unchanged.

``select_parameters`` is advisory: it records the smallest ``(n, q)``
that fits the graph's measured noise consumption in
``meta["parameter_advice"]`` rather than re-keying the live pipeline,
because swapping parameters mid-flight would (by design) break byte
identity with the reference execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphPassError, ParameterError
from repro.graph import ir
from repro.he import modmath
from repro.he.noise import NoiseEstimator
from repro.he.params import EncryptionParams

_PRIME_BITS = 30
_SELECT_DEGREES = (256, 512, 1024, 2048, 4096)
_SELECT_MARGIN_BITS = 8.0
_MAX_SELECT_PRIMES = 12


@dataclass(frozen=True)
class GraphPass:
    """Base pass; ``margin_bits`` is the safety margin noise-sensitive
    rewrites must leave untouched (8.0 at ``safe``, 0.0 at ``aggressive``)."""

    margin_bits: float = 8.0

    name = "abstract"

    def run(self, graph: ir.InferenceGraph) -> str | None:
        raise NotImplementedError


class PackCrossing(GraphPass):
    """Fold the flattened feature-map tensor into polynomial coefficients
    at the enclave crossing: runs of up to ``pack_max_batch`` values share
    one ciphertext, shrinking the inbound crossing payload (bytes crossed
    and trusted-side decrypts) from one ciphertext per value to
    ``ceil(N / chunk)`` ciphertexts.

    Packing costs up to ``log2(chunk)`` bits of noise budget (the monomial
    shift-and-sum), so the pass caps ``chunk`` at what the conv layer's
    remaining budget can absorb above ``margin_bits`` (and at the ring
    degree) and refuses when even ``chunk = 2`` does not fit.  Also refuses
    for graphs with no scalar-layout crossing (pure-HE; the ``simd``
    graph's ``crossing_lanes`` and the serving graphs' ``crossing_image``,
    already packed), for the per-pixel negative control
    (each crossing carries a single value; there is nothing to fold) and
    for multi-block graphs.
    """

    name = "pack_crossing"

    def run(self, graph: ir.InferenceGraph) -> str | None:
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
        headroom = conv.budget_bits - self.margin_bits
        cap = int(min(graph.params.poly_degree, 2.0 ** min(max(headroom, 0.0), 30.0)))
        if cap < 2:
            return (
                f"conv leaves {conv.budget_bits:.1f} budget bits; packing needs "
                f"log2(B) above the {self.margin_bits:.1f}-bit margin"
            )
        crossing.attrs["packed"] = True
        crossing.attrs["pack_max_batch"] = cap
        return None


class SelectParameters(GraphPass):
    """Depth-aware automatic FV parameter selection (advisory).

    Scans ``(n, q)`` candidates smallest-first and records the first whose
    noise budget fits the graph's measured consumption with an 8-bit
    margin in ``meta["parameter_advice"]``.  Never rewrites the execution
    — re-keying would break byte identity with the reference graph — and
    refuses when no candidate fits.
    """

    name = "select_parameters"

    def run(self, graph: ir.InferenceGraph) -> str | None:
        advice = select_parameters(graph)
        if advice is None:
            return "no (n, q) candidate clears the graph's measured noise consumption"
        graph.meta["parameter_advice"] = advice
        return None


def select_parameters(
    graph: ir.InferenceGraph, margin_bits: float = _SELECT_MARGIN_BITS
) -> EncryptionParams | None:
    """Smallest ``(n, q)`` whose budget fits the graph's consumption."""
    bound = graph.meta["plain_bound"]
    for degree in _SELECT_DEGREES:
        plain_modulus = _plain_modulus_for(bound, degree, graph.meta["pure_he"])
        if plain_modulus is None:
            continue
        for count in range(1, _MAX_SELECT_PRIMES + 1):
            try:
                primes = tuple(modmath.ntt_primes(_PRIME_BITS, degree, count))
                params = EncryptionParams(
                    poly_degree=degree,
                    coeff_primes=primes,
                    plain_modulus=plain_modulus,
                    name=f"graph_auto_n{degree}_k{count}",
                )
            except ParameterError:
                continue
            if _graph_fits(graph, NoiseEstimator(params), margin_bits):
                return params
    return None


def _plain_modulus_for(bound: int, degree: int, pure_he: bool) -> int | None:
    t = 1 << max(2, int(bound - 1).bit_length())
    if not pure_he:
        return t
    # Pure-HE squaring needs t to stay a power of two here too (the
    # pipelines scalar-encode), but give up if t would swamp the primes.
    return t if t < (1 << _PRIME_BITS) else None


def _graph_fits(graph: ir.InferenceGraph, estimator: NoiseEstimator, margin: float) -> bool:
    fresh = estimator.fresh_budget()
    worst = 0.0
    segment = 0.0
    for node in graph.nodes:
        if node.op in ir.REFRESH_OPS:
            # Fresh encryption on either side of the crossing resets noise,
            # so each HE segment must fit on its own.
            worst = max(worst, segment)
            segment = 0.0
        else:
            segment += ir.node_noise_cost(node, graph, estimator)
    worst = max(worst, segment)
    return fresh - worst >= margin


PASSES: dict[str, type[GraphPass]] = {
    PackCrossing.name: PackCrossing,
    SelectParameters.name: SelectParameters,
}


def build(name: str, margin_bits: float) -> GraphPass:
    cls = PASSES.get(name)
    if cls is None:
        raise GraphPassError(f"unknown graph pass {name!r}")
    if name == SelectParameters.name:
        return cls(margin_bits=_SELECT_MARGIN_BITS)
    return cls(margin_bits=margin_bits)
