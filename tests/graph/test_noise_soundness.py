"""IR noise estimates against measured budgets on the two serving graphs, the
``simd`` kind (one block, and the deep hybrid's several) and the pure-HE
``cryptonets`` kind: after ``conv`` (one
plaintext-polynomial product per filter on the served request format) and
on the result a client receives.  The fold is a host-side sum, not a
refresh -- it makes ``conv`` start below fresh, and the one crossing
computes fc on plaintext and refreshes -- and a model that leaves no budget
is refused when it is provisioned.  The flush is the direct chain behind
its fold, so its graph alone is budgeted; the ``simd`` kind walks the same
nodes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.client import AttestedClient
from repro.core import (
    CryptonetsPipeline,
    EdgeServer,
    SimdHybridPipeline,
    heops,
    parameters_for_pipeline,
)
from repro.errors import ParameterError
from repro.graph import ir
from repro.he import EncryptionParams, modmath
from repro.he.noise import NoiseEstimator
from repro.serve import InferenceRequest, ServeConfig
from repro.sgx import AttestationVerificationService

from .kinds import deep_model, single_block_model

#: Batches on both sides of the flush's block boundaries: 8x8 images at
#: n = 256 fold 4 per ciphertext.
BATCHES = [1, 2, 7, 8, 16]


def test_fold_is_priced_not_a_refresh():
    model = single_block_model()
    params = parameters_for_pipeline(model, 256, batching=True)
    fresh = NoiseEstimator(params).fresh_budget()
    served = ir.build_graph("served", model, params)
    assert "fold" not in ir.REFRESH_OPS
    assert ir.build_graph("packed", model, params).node("fold").attrs == {
        "lanes": 256, "stride": 64,
    }
    for lanes in (1, 2, 16, 256):
        packed = ir.build_graph("packed", model, params, lanes=lanes)
        fold, conv = packed.node("fold"), packed.node("conv")
        # A ciphertext sums at most P = 256 // 64 images, however many ride.
        cost = np.log2(min(lanes, 4))
        assert fold.noise_cost_bits == pytest.approx(cost)
        assert fold.budget_bits == pytest.approx(fresh - cost)
        assert conv.budget_bits == pytest.approx(served.node("conv").budget_bits - cost)
        # The crossing, which also computes fc, refreshes: the result does
        # not pay for the fold.
        assert packed.nodes[-1] is packed.node("crossing_image")
        assert packed.node("crossing_image").budget_bits == fresh


def test_the_flush_graph_dominates_the_served_graph():
    """``packed`` is the ``served`` node list behind a ``fold``, and no node
    of it keeps more headroom than its ``served`` twin: a flush graph that
    passes ``require_headroom`` passes it for the direct path too."""
    model = single_block_model()
    params = parameters_for_pipeline(model, 256, batching=True)
    served = ir.build_graph("served", model, params)
    for lanes in (1, 4, 256):
        packed = ir.build_graph("packed", model, params, lanes=lanes)
        assert packed.nodes[0].op == "fold"
        chain = packed.nodes[1:]
        assert [(node.op, node.stage, node.attrs) for node in chain] == [
            (node.op, node.stage, node.attrs) for node in served.nodes
        ]
        for flush, direct in zip(chain, served.nodes):
            assert flush.budget_bits <= direct.budget_bits, flush.stage


def _spy_budgets(
    monkeypatch, decryptor, layers=(("conv", "he_conv2d"), ("fc", "he_dense"))
) -> dict:
    """The measured budget of every output of ``layers`` (stage, ``heops``
    function), by stage."""
    measured = {}
    for stage, name in layers:
        layer = getattr(heops, name)

        def spy(*args, _layer=layer, _stage=stage):
            out = _layer(*args)
            measured[_stage] = decryptor.invariant_noise_budget(out)
            return out

        monkeypatch.setattr(heops, name, spy)
    return measured


def _assert_lower_bounds(graph, measured, result_node=None) -> None:
    """Every ``conv`` / ``fc`` node of ``graph``, and the result."""
    stages = {op: op for op in ("conv", "fc") if op in {n.op for n in graph.nodes}}
    if result_node is not None:
        stages["result"] = result_node
    for key, stage in stages.items():
        estimated = graph.node(stage).budget_bits
        assert 0.0 < estimated <= measured[key], (key, estimated, measured[key])


def _deployment(model, params, **config):
    server = EdgeServer(params, seed=13, serve_config=ServeConfig(**config))
    server.provision_model("m", model)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    return server, AttestedClient(server, verifier, b"\x42" * 32).establish().session


@pytest.mark.parametrize("batch", [*BATCHES, 256])
def test_ir_headroom_lower_bounds_the_measured_budget(batch, monkeypatch):
    """The packed flush: the fold's images, ``P`` per ciphertext, through
    conv; the crossing's re-encrypted results."""
    model = single_block_model()
    params = parameters_for_pipeline(model, 256, batching=True)
    server, session = _deployment(model, params, max_batch=batch)
    measured = _spy_budgets(monkeypatch, session.decryptor)
    images = np.random.default_rng(2116).random((batch, 1, 8, 8))
    response = server.scheduler.submit("m", session.encrypt("m", images))
    assert response.done() and response.result().packed_batch == batch
    measured["result"] = session.decryptor.invariant_noise_budget(
        response.result().logits_ct
    )
    graph = ir.build_graph("packed", model, params, lanes=batch)
    assert "fc" not in measured  # no fc ciphertext exists on a serving path
    _assert_lower_bounds(graph, measured, result_node="crossing_image")


@pytest.mark.parametrize("batch", [1, 2, 16, 256])
def test_simd_headroom_lower_bounds_the_measured_budget(batch, monkeypatch):
    """The ``simd`` kind: the user's fresh encryption, then the flush's fold,
    conv and crossing; the result is the one the decrypt node reads."""
    model = single_block_model()
    params = parameters_for_pipeline(model, 256, batching=True)
    pipeline = SimdHybridPipeline(model, params, seed=7)
    measured = _spy_budgets(monkeypatch, pipeline.decryptor)
    images = np.random.default_rng(2118).random((batch, 1, 8, 8))
    measured["result"] = pipeline.infer(images).noise_budget_bits
    graph = ir.build_graph("simd", model, params)
    assert graph.node("encrypt_image").op in ir.REFRESH_OPS
    assert "fc" not in measured  # fc runs inside the crossing
    _assert_lower_bounds(graph, measured, result_node="crossing_image")


@pytest.mark.parametrize("batch", [1, 2, 5, 8])
def test_deep_headroom_lower_bounds_every_block(batch, monkeypatch):
    """The deep hybrid's ``simd`` graph over two blocks: block 0's conv pays
    the user's fold; the inner crossing re-encrypts block 1's images fresh
    and already folded (7 of 6 x 6 per ciphertext at n = 256), so block 1's
    conv starts from a refresh.  The IR's headroom lower-bounds the measured
    budget at every block's conv and on the result."""
    model = deep_model()
    params = parameters_for_pipeline(model, 256)
    pipeline = SimdHybridPipeline(model, params, seed=7)
    budgets = []
    conv = heops.he_conv2d

    def spy(*args):
        out = conv(*args)
        budgets.append(pipeline.decryptor.invariant_noise_budget(out))
        return out

    monkeypatch.setattr(heops, "he_conv2d", spy)
    images = np.random.default_rng(2119).random((batch, 1, 14, 14))
    result = pipeline.infer(images)
    measured = dict(zip(("conv_0", "conv_1"), budgets, strict=True))
    measured["sgx_block_1"] = result.noise_budget_bits
    stages = {node.stage: node for node in pipeline.graph.nodes}
    assert stages["sgx_block_0"].op in ir.REFRESH_OPS
    for stage, value in measured.items():
        estimated = stages[stage].budget_bits
        assert 0.0 < estimated <= value, (stage, estimated, value)


@pytest.mark.parametrize("batch", BATCHES)
def test_served_headroom_lower_bounds_the_result_budget(batch, monkeypatch):
    """The direct path: conv, then the one crossing that activates, pools,
    computes fc and re-encrypts the logits fresh for the client."""
    model = single_block_model()
    params = parameters_for_pipeline(model, 256, batching=True)
    server, session = _deployment(model, params)
    measured = _spy_budgets(monkeypatch, session.decryptor)
    images = np.random.default_rng(2117).random((batch, 1, 8, 8))
    request = InferenceRequest(model="m", ciphertext=session.encrypt("m", images))
    result = server.infer(request)
    graph = ir.build_graph("served", model, params)
    crossing = graph.node("crossing_image")
    assert graph.nodes[-1] is crossing and crossing.op in ir.REFRESH_OPS
    assert crossing.budget_bits == NoiseEstimator(params).fresh_budget()
    assert "fc" not in measured
    measured["result"] = session.decryptor.invariant_noise_budget(result.logits_ct)
    _assert_lower_bounds(graph, measured, result_node="crossing_image")


@pytest.mark.parametrize("batch", [1, 2, 8])
def test_cryptonets_headroom_lower_bounds_the_result_budget(batch, models):
    """The pure-HE chain pools and contracts its size-3 squares and
    relinearizes once per logit, after fc: the headroom the IR leaves at
    ``decrypt`` (28.6 bits on this model) is at most the measured budget of
    the logits (49.4-50.0)."""
    quantized = models.quantized_square()
    params = parameters_for_pipeline(quantized, 256)
    result = CryptonetsPipeline(quantized, params, seed=7).infer(
        models.dataset.test_images[:batch]
    )
    graph = ir.build_graph("cryptonets", quantized, params)
    assert [node.op for node in graph.nodes[-3:]] == ["fc", "relinearize", "decrypt"]
    estimated = graph.node("decrypt").budget_bits
    assert 0.0 < estimated <= result.noise_budget_bits


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 9(a): the IR over-estimates the budget left after "
    "conv (98.8 estimated vs 90.3 measured bits) and square (56.8 vs 54.3)",
)
@pytest.mark.parametrize("stage", ["conv", "square"])
def test_cryptonets_headroom_lower_bounds_conv_and_square(stage, models, monkeypatch):
    quantized = models.quantized_square()
    params = parameters_for_pipeline(quantized, 256)
    pipeline = CryptonetsPipeline(quantized, params, seed=7)
    measured = _spy_budgets(monkeypatch, pipeline.decryptor, (("conv", "he_conv2d"),))
    square = heops.he_square

    def spy(evaluator, ct):
        # The chain keeps its squares unscaled; the square's budget is that
        # of Evaluator.multiply(conv, conv), i.e. of the rescaled product.
        out = square(evaluator, ct)
        measured["square"] = pipeline.decryptor.invariant_noise_budget(evaluator.rescale(out))
        return out

    monkeypatch.setattr(heops, "he_square", spy)
    pipeline.infer(models.dataset.test_images[:2])
    estimated = ir.build_graph("cryptonets", quantized, params).node(stage).budget_bits
    assert estimated <= measured[stage], (stage, estimated, measured[stage])


def test_provisioning_refuses_a_flush_with_no_headroom():
    model = single_block_model()
    sized = parameters_for_pipeline(model, 256, batching=True)
    # One 30-bit prime leaves under 3 bits of fresh budget: conv alone
    # costs 5, and the fold of 4 images per ciphertext 2 more.
    tight = EncryptionParams(
        poly_degree=256,
        coeff_primes=sized.coeff_primes[:1],
        plain_modulus=sized.plain_modulus,
        name="tight",
    )
    with pytest.raises(ParameterError, match=r"packed graph leaves layer 'conv'"):
        EdgeServer(tight, seed=13).provision_model("m", model)
    server = EdgeServer(sized, seed=13)
    server.provision_model("m", model)
    assert server.models() == ["m"]
    # The fold's price stops growing at the images one ciphertext holds:
    # any capacity past P = 4 leaves conv the headroom P leaves it.
    at_p = ir.build_graph("packed", model, sized, lanes=4).node("conv").budget_bits
    for lanes in (16, 1 << 30):
        graph = ir.build_graph("packed", model, sized, lanes=lanes)
        assert graph.node("conv").budget_bits == at_p
        ir.require_headroom(graph)
    graph = ir.build_graph("packed", model, tight, lanes=4)
    assert graph.node("conv").budget_bits < 0


def test_an_image_past_the_ring_is_a_parameter_error():
    """The served request format puts one image in one polynomial: a model
    whose images have more pixels than the ring has coefficients is refused
    when its graphs are built, typed."""
    model = single_block_model()  # 8 x 8 = 64 pixels
    params = parameters_for_pipeline(model, 256, batching=True)
    small = EncryptionParams(
        poly_degree=32,
        coeff_primes=tuple(modmath.ntt_primes(30, 32, 2)),
        plain_modulus=params.plain_modulus,
        name="small",
    )
    for kind in ("served", "packed"):
        with pytest.raises(ParameterError, match=r"8x8 images do not fit the 32"):
            ir.build_graph(kind, model, small)
    with pytest.raises(ParameterError, match="do not fit"):
        EdgeServer(small, seed=13).provision_model("m", model)


def test_classes_past_the_ring_are_a_parameter_error():
    """A served result holds one image's classes in one polynomial's
    coefficients: more classes than the ring has coefficients are refused
    when the graphs are built, typed."""
    model = dataclasses.replace(
        single_block_model(),  # 8 x 8 images fill n = 64 exactly
        dense_weight=np.ones((18, 65), dtype=np.int64),
        dense_bias=np.zeros(65, dtype=np.int64),
    )
    params = EncryptionParams(
        poly_degree=64,
        coeff_primes=tuple(modmath.ntt_primes(30, 64, 2)),
        plain_modulus=1 << 20,
        name="n64",
    )
    for kind in ("served", "packed"):
        with pytest.raises(ParameterError, match="65 classes do not fit 64"):
            ir.build_graph(kind, model, params)
