"""Inference-graph IR over ``repro.core.heops``.

Every HE chain in the repository is a short linear one, so the IR is
deliberately small: a list of :class:`GraphNode` objects (encrypt, conv,
enclave crossing, square/pool, fc, relinearize, decrypt, the serving
flush's fold) plus a ``meta`` dict holding the model-derived
constants the annotations need (each contraction's integer weight matrix)
and the crossing mode.  Edges are implicit — node ``i`` feeds node
``i + 1`` — and each node carries the multiplicative level plus noise
annotations (:func:`annotate`) derived from
:class:`repro.he.noise.NoiseEstimator`, which is what lets provisioning
check a graph's headroom (:func:`require_headroom`) without touching
ciphertexts.

One builder per graph kind (:data:`BUILDERS`): ``hybrid``, ``cryptonets``,
``deep``, the two serving kinds, which one builder makes
(:func:`build_served_graph`): ``served`` (``EdgeServer.infer``: conv, then
one crossing that also computes fc and re-encrypts the logits, one result
ciphertext per image) and ``packed`` (the scheduler flush: the same chain
behind a ``fold``), and ``simd``, the ``packed`` chain between the user's
encrypt and decrypt.  They take the served request format, one image per
polynomial (:func:`image_layout`); their crossing carries that layout as an
``image`` attribute.  Work on coefficients (``encrypt_image``, ``fold``,
``crossing_image``, ``decrypt_result``) has its own ops, not flags on the
scalar ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ParameterError, PipelineError
from repro.he.batching import ImageLayout
from repro.he.noise import NoiseEstimator
from repro.he.params import EncryptionParams


#: Ops whose output is a fresh encryption (the user's, or the enclave's
#: re-encrypt on the trusted side of a crossing): the noise budget resets.
REFRESH_OPS = frozenset(
    {"encrypt", "encrypt_image", "crossing", "crossing_image", "crossing_per_pixel"}
)

#: Ops that contract against a weight matrix in ``meta["layers"]``.
CONTRACTION_OPS = frozenset({"conv", "fc"})


@dataclass
class GraphNode:
    """One operation in the linear inference chain.

    Attributes:
        op: semantic opcode; the executor's op table has one handler per
            opcode (``repro.graph.executor.OPS``).
        stage: trace stage name the executor emits for this node (kept
            equal to the pre-IR pipelines so traces stay comparable).
        attrs: the node's own parameters (a crossing's scales, activation
            and pool; a pool's window; a fold's lanes and stride).
        level: multiplicative depth entering the *output* of this node.
        budget_bits: estimated invariant-noise budget after this node.
        noise_cost_bits: estimated budget this node consumes.
    """

    op: str
    stage: str
    attrs: dict[str, Any] = field(default_factory=dict)
    level: int = 0
    budget_bits: float = 0.0
    noise_cost_bits: float = 0.0

    def signature(self) -> tuple:
        """Hashable fingerprint the profiler keys measured costs by."""
        return (
            self.op,
            self.stage,
            self.level,
            round(self.budget_bits, 6),
            round(self.noise_cost_bits, 6),
            tuple(sorted(self.attrs.items())),
        )


@dataclass
class InferenceGraph:
    """A linear chain of :class:`GraphNode` plus model metadata."""

    kind: str
    params: EncryptionParams
    nodes: list[GraphNode]
    meta: dict[str, Any]

    def node(self, op: str) -> GraphNode:
        for node in self.nodes:
            if node.op == op:
                return node
        raise PipelineError(f"graph has no {op!r} node")



def node_noise_cost(node: GraphNode, graph: InferenceGraph, estimator: NoiseEstimator) -> float:
    """Estimated budget cost of one node.

    The per-layer convention ``parameters_for_pipeline`` sizes for: a refresh
    resets the budget to fresh, and a contraction costs one plaintext multiply
    at the layer's weight norm plus the additions over its fan-in -- the terms
    with a non-zero weight (:func:`repro.core.heops._plan_contraction`).
    """
    if node.op in CONTRACTION_OPS:
        matrix = graph.meta["layers"][node.stage]
        terms = int(np.count_nonzero(matrix.any(axis=0)))
        norm = float(max(1, np.abs(matrix).max()))
        return estimator.plain_multiply_cost(norm) + estimator.add_cost(max(1, terms))
    if node.op == "square":
        return estimator.multiply_cost()
    if node.op == "relinearize":
        return estimator.relinearize_cost()
    if node.op == "pool":
        return estimator.add_cost(node.attrs["window"] ** 2)
    if node.op == "fold":
        per = graph.params.poly_degree // node.attrs["stride"]
        return estimator.add_cost(min(node.attrs["lanes"], per))
    return 0.0


def annotate(graph: InferenceGraph) -> InferenceGraph:
    """(Re)derive level and noise annotations for every node.

    Deterministic in the nodes + meta; running it twice is a no-op.
    """
    estimator = NoiseEstimator(graph.params)
    fresh = estimator.fresh_budget()
    budget = fresh
    level = 0
    for node in graph.nodes:
        if node.op in REFRESH_OPS:
            budget = fresh
            node.noise_cost_bits = 0.0
        else:
            cost = node_noise_cost(node, graph, estimator)
            node.noise_cost_bits = cost
            budget -= cost
            if node.op == "square":
                level += 1
        node.budget_bits = budget
        node.level = level
    return graph


def require_headroom(graph: InferenceGraph) -> None:
    """:class:`ParameterError` naming the node estimated to end with the least
    budget, when that is none: every node that does not refresh is checked."""
    spent = [node for node in graph.nodes if node.op not in REFRESH_OPS]
    node = min(spent, key=lambda node: node.budget_bits, default=None)
    if node is not None and node.budget_bits <= 0.0:
        raise ParameterError(
            f"{graph.kind} graph leaves layer {node.stage!r} {node.budget_bits:.1f} "
            f"bits of noise budget under {graph.params.name!r}: widen the "
            "coefficient modulus (or, for a packed flush, lower max_batch)"
        )


def _crossing(op: str, stage: str, input_scale, output_scale, window, activation, pool):
    """An enclave activation + pool node carrying its own scales, so one
    handler serves the single-block models and every deep block alike."""
    attrs = {
        "input_scale": input_scale,
        "output_scale": output_scale,
        "window": window,
        "activation": activation,
        "pool": pool,
    }
    return GraphNode(op, stage, attrs)


def _graph(kind, params, nodes, layers, mode="batched") -> InferenceGraph:
    """``layers`` maps each contraction's stage name to its integer weight
    matrix, outputs x fan-in terms (conv: ``(F, C*k*k)``; fc: ``(O, D)``)."""
    meta = {"layers": layers, "mode": mode}
    return annotate(InferenceGraph(kind, params, nodes, meta))


def _single_block(kind, quantized, params, head, between, tail, mode="batched"):
    """``head -> conv -> between -> fc -> tail`` over one QuantizedCNN."""
    nodes = [*head, GraphNode("conv", "conv"), *between, GraphNode("fc", "fc"), *tail]
    layers = {
        "conv": _conv_matrix(quantized),
        "fc": np.asarray(quantized.dense_weight, dtype=np.int64).T,
    }
    return _graph(kind, params, nodes, layers, mode)


def _conv_matrix(quantized) -> np.ndarray:
    conv = np.asarray(quantized.conv_weight, dtype=np.int64)
    return conv.reshape(conv.shape[0], -1)


def _enclave_stage(op: str, quantized) -> GraphNode:
    return _crossing(
        op,
        "sgx_activation_pool",
        quantized.conv_output_scale,
        quantized.act_scale,
        quantized.pool_window,
        quantized.activation,
        quantized.pool,
    )


def build_hybrid_graph(quantized, params: EncryptionParams, mode: str = "batched") -> InferenceGraph:
    """IR for the paper's EncryptSGX pipeline (conv -> enclave -> fc)."""
    crossing = "crossing_per_pixel" if mode == "per_pixel" else "crossing"
    return _single_block(
        "hybrid", quantized, params,
        [GraphNode("encrypt", "encrypt")], [_enclave_stage(crossing, quantized)],
        [GraphNode("decrypt", "decrypt")], mode,
    )


def build_cryptonets_graph(quantized, params: EncryptionParams) -> InferenceGraph:
    """IR for the pure-HE CryptoNets pipeline (square activation).

    Everything after ``square`` is linear, and relinearization commutes with
    sums and plaintext products up to noise, so pool and fc run on the
    size-3 squares and ``relinearize`` runs once per logit, not once per
    conv output."""
    between = [
        GraphNode("square", "square"),
        GraphNode("pool", "pool", {"window": int(quantized.pool_window)}),
    ]
    tail = [GraphNode("relinearize", "relinearize"), GraphNode("decrypt", "decrypt")]
    return _single_block(
        "cryptonets", quantized, params, [GraphNode("encrypt", "encrypt")], between, tail,
    )


def image_layout(quantized, params: EncryptionParams) -> ImageLayout:
    """The served request format of ``quantized`` under ``params``: its
    geometry is the model's (:attr:`QuantizedCNN.input_shape`), one image
    per ``n``-coefficient polynomial.

    Raises:
        ParameterError: an image of the model does not fit the ring.
    """
    _, height, width = quantized.input_shape
    if height * width > params.poly_degree:
        raise ParameterError(
            f"the model's {height}x{width} images do not fit the "
            f"{params.poly_degree} coefficients of {params.name!r}"
        )
    return ImageLayout(
        height, width, int(np.shape(quantized.conv_weight)[-1]), int(quantized.stride),
        int(quantized.conv_bound),
    )


def build_served_graph(
    quantized, params: EncryptionParams, lanes: int | None = None
) -> InferenceGraph:
    """IR for ``EdgeServer.infer``: the hybrid's server half, on images the
    user already encrypted one per polynomial and a result only the user can
    decrypt -- conv is one plaintext-polynomial product per filter, and the
    one crossing activates, pools and computes fc on plaintext, re-encrypting
    each image's logits as one polynomial, class ``c`` in coefficient ``c``.

    With ``lanes`` it is the serving flush (kind ``packed``): the same chain
    behind a ``fold`` of up to ``lanes`` requests (the scheduler's capacity;
    0 = ring degree), ``n // (H*W)`` images per ciphertext -- additions, not
    a refresh, so they come out of ``conv``'s budget.

    Raises:
        ParameterError: an image, or the classes, do not fit the ring.
    """
    image = image_layout(quantized, params)
    classes = np.shape(quantized.dense_weight)[1]
    if classes > params.poly_degree:
        raise ParameterError(
            f"{classes} classes do not fit {params.poly_degree} coefficients"
        )
    crossing = _enclave_stage("crossing_image", quantized)
    crossing.attrs["image"] = image
    head = []
    if lanes is not None:
        fold = {"lanes": int(lanes) or params.poly_degree, "stride": image.pixels}
        head = [GraphNode("fold", "pack", fold)]
    return _graph(
        "served" if lanes is None else "packed", params,
        [*head, GraphNode("conv", "conv"), crossing],
        {"conv": _conv_matrix(quantized)},
    )


def build_simd_graph(quantized, params: EncryptionParams) -> InferenceGraph:
    """IR for the in-process packed hybrid: the user encrypts the batch in
    the served request format, the nodes of the serving flush (kind
    ``packed``) run as they are, and the user decrypts one result per image,
    class ``c`` in coefficient ``c``."""
    flush = build_served_graph(quantized, params, lanes=0)
    classes = int(np.shape(quantized.dense_weight)[1])
    nodes = [
        GraphNode("encrypt_image", "encrypt", {"shape": tuple(quantized.input_shape)}),
        *flush.nodes,
        GraphNode("decrypt_result", "decrypt", {"classes": classes}),
    ]
    return _graph("simd", params, nodes, flush.meta["layers"])


def build_deep_graph(quantized, params: EncryptionParams) -> InferenceGraph:
    """IR for a multi-block model: one ``conv_i -> sgx_block_i`` pair per
    block, each crossing re-encrypting at its own block's scales."""
    nodes = [GraphNode("encrypt", "encrypt")]
    layers = {}
    for i, block in enumerate(quantized.blocks):
        weight = np.asarray(block.weight, dtype=np.int64)
        layers[f"conv_{i}"] = weight.reshape(weight.shape[0], -1)
        nodes.append(GraphNode("conv", f"conv_{i}"))
        nodes.append(
            _crossing(
                "crossing",
                f"sgx_block_{i}",
                quantized.block_input_scale(i) * block.weight_scale,
                block.act_scale,
                block.pool_window,
                block.activation,
                block.pool,
            )
        )
    layers["fc"] = np.asarray(quantized.dense_weight, dtype=np.int64).T
    nodes += [GraphNode("fc", "fc"), GraphNode("decrypt", "decrypt")]
    return _graph("deep", params, nodes, layers)


#: Graph kind -> builder; every HE chain in the repository is one of these.
BUILDERS = {
    "hybrid": build_hybrid_graph,
    "cryptonets": build_cryptonets_graph,
    "simd": build_simd_graph,
    "deep": build_deep_graph,
    "served": build_served_graph,
    "packed": functools.partial(build_served_graph, lanes=0),
}


def build_graph(kind: str, quantized, params: EncryptionParams, **options) -> InferenceGraph:
    builder = BUILDERS.get(kind)
    if builder is None:
        raise PipelineError(f"unknown graph kind {kind!r}; expected one of {sorted(BUILDERS)}")
    return builder(quantized, params, **options)
