"""Regression: refresh-free depth exhausts the budget at a *pinned* layer.

The paper's central noise argument (Sections III-A / IV-E) is quantitative:
without SGX refresh, a multiply chain survives only a bounded number of
layers before :class:`~repro.errors.NoiseBudgetExhausted`.  This test pins
the measured exhaustion layer for the deterministic 256-degree deployment
and cross-checks it against :class:`~repro.he.noise.NoiseEstimator`, so a
silent change to either the noise accounting or the estimator formulas
fails loudly instead of shifting results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NoiseBudgetExhausted
from repro.he import (
    Context,
    Decryptor,
    Evaluator,
    KeyGenerator,
    ScalarEncoder,
    SymmetricEncryptor,
    small_parameter_options,
)
from repro.he.noise import NoiseEstimator

#: Plaintext multiplier per layer; its magnitude drives per-layer noise cost.
LAYER_WEIGHT = 3
#: Measured exhaustion layer for params=test_256, seed=2024, weight=3.
#: If an intentional noise-model change moves this, re-pin it here AND
#: revisit the estimator cross-check below.
PINNED_EXHAUSTION_LAYER = 23


@pytest.fixture(scope="module")
def deployment():
    """A deterministic local deployment, independent of session fixtures
    (whose RNG draws depend on test execution order)."""
    params = small_parameter_options()[256]
    context = Context(params)
    rng = np.random.default_rng(2024)
    keys = KeyGenerator(context, rng).generate()
    return {
        "params": params,
        "context": context,
        "encryptor": SymmetricEncryptor(context, keys.secret, rng),
        "decryptor": Decryptor(context, keys.secret),
        "evaluator": Evaluator(context),
        "encoder": ScalarEncoder(context),
    }


def exhaustion_layer(deployment) -> int:
    """Depth of the first multiply_plain layer whose decrypt (with noise
    checking) fails; mirrors a refresh-free deep pipeline's layer loop."""
    encoder = deployment["encoder"]
    evaluator = deployment["evaluator"]
    decryptor = deployment["decryptor"]
    ct = deployment["encryptor"].encrypt(encoder.encode(np.int64(1)))
    weight = encoder.encode(np.int64(LAYER_WEIGHT))
    for layer in range(1, 64):
        ct = evaluator.multiply_plain(ct, weight)
        try:
            decryptor.decrypt(ct, check_noise=True)
        except NoiseBudgetExhausted:
            return layer
    raise AssertionError("budget never exhausted within 64 layers")


class TestRefreshFreeDepthLimit:
    def test_exhaustion_layer_is_pinned(self, deployment):
        assert exhaustion_layer(deployment) == PINNED_EXHAUSTION_LAYER

    def test_budget_decreases_monotonically_until_exhaustion(self, deployment):
        encoder = deployment["encoder"]
        evaluator = deployment["evaluator"]
        decryptor = deployment["decryptor"]
        ct = deployment["encryptor"].encrypt(encoder.encode(np.int64(1)))
        weight = encoder.encode(np.int64(LAYER_WEIGHT))
        budgets = [decryptor.invariant_noise_budget(ct)]
        for _ in range(PINNED_EXHAUSTION_LAYER):
            ct = evaluator.multiply_plain(ct, weight)
            budgets.append(decryptor.invariant_noise_budget(ct))
        assert all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))
        # Below is_decryptable's 0.5-bit margin: the next decrypt refuses.
        assert budgets[-1] < 0.5

    def test_estimator_predicts_the_measured_layer(self, deployment):
        """The estimator is an upper bound on noise (lower bound on depth):
        it must not promise layers the measured chain cannot deliver, and it
        must land within a small constant of the truth."""
        estimator = NoiseEstimator(deployment["params"])
        predicted = 0
        while estimator.budget_after(
            plain_multiplies=predicted + 1, plain_norm=LAYER_WEIGHT
        ) > 0:
            predicted += 1
        # First failing layer according to the estimate:
        predicted_exhaustion = predicted + 1
        assert predicted_exhaustion <= PINNED_EXHAUSTION_LAYER
        assert PINNED_EXHAUSTION_LAYER - predicted_exhaustion <= 6

    def test_fresh_budget_estimate_brackets_measurement(self, deployment):
        estimator = NoiseEstimator(deployment["params"])
        encoder = deployment["encoder"]
        ct = deployment["encryptor"].encrypt(encoder.encode(np.int64(1)))
        measured = deployment["decryptor"].invariant_noise_budget(ct)
        estimated = estimator.fresh_budget()
        assert estimated <= measured  # upper-bound noise => conservative budget
        assert measured - estimated <= 15.0


def _toy_model(activation: str) -> "QuantizedCNN":
    from repro.nn.quantize import QuantizedCNN, QuantizedConvBlock

    rng = np.random.default_rng(99)
    conv = rng.integers(-5, 6, size=(2, 2, 3, 3))
    dense = rng.integers(-7, 8, size=(32, 3))
    dense[0, 0] = 7  # pin the norm to the dense layer
    block = QuantizedConvBlock(
        weight=conv,
        bias=np.zeros(2, dtype=np.int64),
        weight_scale=5.0,
        stride=1,
        activation=activation,
        pool="scaled_mean" if activation == "square" else "mean",
        pool_window=2,
        act_scale=15,
    )
    return QuantizedCNN(
        blocks=[block],
        dense_weight=dense,
        dense_bias=np.zeros(3, dtype=np.int64),
        dense_weight_scale=7.0,
        input_scale=15,
    )


class TestNoiseProfileAccounting:
    """Regression for the latent ``QuantizedCNN.noise_profile`` bug: the
    profile under-counted the conv fan-in (it read only one spatial axis)
    and ignored the dense weights entirely, so parameter sizing could
    hand out too little budget.  Pins the corrected convention against
    the written-out per-layer headroom and the graph IR annotations."""

    def test_hybrid_counts_widest_single_layer(self):
        q = _toy_model("sigmoid")
        pure_he, norm, additions = q.noise_profile()
        assert not pure_he
        # conv fan-in = k*k*in_channels = 18; fc fan-in = 32; the enclave
        # refresh between them means only the widest layer counts.
        assert additions == 32
        assert norm == 7.0  # max over BOTH weight layers, not just conv

    def test_pure_he_carries_fanin_through_the_circuit(self):
        q = _toy_model("square")
        pure_he, norm, additions = q.noise_profile()
        assert pure_he
        # One encrypted circuit: conv taps (18) x pool window sum (4) x fc
        # terms (32), no refresh anywhere to reset the accumulation.
        assert additions == 18 * 4 * 32
        assert norm == 7.0

    def test_profile_matches_layer_headroom_convention(self):
        """The hybrid profile must describe the same worst layer the
        graph IR's per-layer headroom uses, so ``parameters_for_pipeline``
        sizes for exactly that layer."""
        from repro.core import parameters_for_pipeline
        from repro.graph import ir

        q = _toy_model("sigmoid")
        params = parameters_for_pipeline(q, 256)
        estimator = NoiseEstimator(params)
        _, norm, additions = q.noise_profile()
        # The hybrid graph: the served one's fc also pays its class fold.
        graph = ir.build_hybrid_graph(q, params)
        worst = min(graph.node(layer).budget_bits for layer in ("conv", "fc"))
        sized = estimator.budget_after(
            plain_multiplies=1, plain_norm=norm, additions=additions
        )
        assert sized == pytest.approx(worst)
        assert worst > 0

    def test_graph_ir_budgets_agree_with_layer_headroom(self):
        from repro.core import parameters_for_pipeline
        from repro.graph import ir

        q = _toy_model("sigmoid")
        params = parameters_for_pipeline(q, 256)
        graph = ir.build_hybrid_graph(q, params)
        # Each refresh resets to fresh; a layer pays one plain multiply at
        # its weight norm plus log-additive growth over its fan-in.
        estimator = NoiseEstimator(params)
        k = q.blocks[0].weight.shape[-1]
        headroom = {
            "conv": estimator.budget_after(
                plain_multiplies=1,
                plain_norm=float(np.abs(q.blocks[0].weight).max()),
                additions=k * k * q.blocks[0].weight.shape[1],
            ),
            "fc": estimator.budget_after(
                plain_multiplies=1,
                plain_norm=float(np.abs(q.dense_weight).max()),
                additions=q.dense_weight.shape[0],
            ),
        }
        assert graph.node("conv").budget_bits == pytest.approx(headroom["conv"])
        assert graph.node("fc").budget_bits == pytest.approx(headroom["fc"])
