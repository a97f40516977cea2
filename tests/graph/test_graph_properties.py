"""Property-style tests over seeded random graphs.

Pure compiler-level checks (no ciphertexts): random tiny quantized models
— including planted zero / identity / constant operands — compiled at
``safe`` must give an idempotent compiler that never grows the graph or its
estimated noise consumption, never mutates its input, and packs only within
the 8-bit margin.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import parameters_for_pipeline
from repro.errors import ParameterError
from repro.graph import ir
from repro.graph.optimizer import compile_graph
from repro.graph.passes import MARGIN_BITS
from repro.nn.quantize import QuantizedCNN

SEEDS = range(12)


def _random_model(rng: np.random.Generator) -> QuantizedCNN:
    """A tiny random QuantizedCNN; weights may contain planted structure."""
    pure_he = bool(rng.integers(2))
    channels = int(rng.integers(1, 3))
    filters = int(rng.integers(1, 3))
    k = int(rng.choice([2, 3]))
    image = int(rng.integers(k + 2, k + 5))
    out = image - k + 1
    window = 2 if out % 2 == 0 else 1
    flat_dim = filters * (out // window) ** 2
    conv = rng.integers(-4, 5, size=(filters, channels, k, k))
    dense = rng.integers(-4, 5, size=(flat_dim, 3))
    structure = rng.integers(4)
    if structure == 1:  # planted zero operands
        conv[:, 0, 0, 0] = 0
        dense[: max(1, flat_dim // 4), :] = 0
    elif structure == 2:  # identity-ish taps (all but one column zero)
        conv[...] = 0
        conv[:, 0, 0, 0] = 1
    elif structure == 3:  # constant operands
        conv[...] = 2
        dense[...] = 1
    return QuantizedCNN(
        conv_weight=conv,
        conv_bias=rng.integers(-3, 4, size=(filters,)),
        dense_weight=dense,
        dense_bias=rng.integers(-3, 4, size=(3,)),
        input_scale=15,
        conv_weight_scale=4.0,
        dense_weight_scale=4.0,
        act_scale=15,
        activation="square" if pure_he else "sigmoid",
        pool="scaled_mean" if pure_he else "mean",
        pool_window=window,
    )


def _random_graph(seed: int):
    rng = np.random.default_rng(1000 + seed)
    quantized = _random_model(rng)
    try:
        params = parameters_for_pipeline(quantized, 256)
    except ParameterError:
        pytest.skip("random model does not fit n=256 parameters")
    if quantized.activation != "square":
        mode = str(rng.choice(["batched", "per_pixel", "fake"]))
        return ir.build_hybrid_graph(quantized, params, mode=mode)
    return ir.build_cryptonets_graph(quantized, params)


@pytest.mark.parametrize("seed", SEEDS)
class TestCompilerProperties:
    def test_idempotent(self, seed):
        graph = _random_graph(seed)
        once, _ = compile_graph(graph, level="safe")
        twice, _ = compile_graph(once, level="safe")
        assert once.signature() == twice.signature()

    def test_never_grows(self, seed):
        graph = _random_graph(seed)
        compiled, _ = compile_graph(graph, level="safe")
        assert compiled.node_count <= graph.node_count
        assert (
            compiled.he_noise_consumption()
            <= graph.he_noise_consumption() + 1e-9
        )

    def test_input_graph_not_mutated(self, seed):
        graph = _random_graph(seed)
        before = graph.signature()
        compile_graph(graph, level="safe")
        assert graph.signature() == before

    def test_packing_respects_margin(self, seed):
        graph = _random_graph(seed)
        compiled, report = compile_graph(graph, level="safe")
        if "pack_crossing" not in report.applied:
            return
        crossing = compiled.node("crossing")
        cap = crossing.attrs["pack_max_batch"]
        assert cap >= 2
        conv = compiled.node("conv")
        assert conv.budget_bits - np.log2(cap) >= MARGIN_BITS - 1e-6
