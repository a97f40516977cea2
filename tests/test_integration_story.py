"""The full paper story as one integration test.

Walks the complete lifecycle end to end at tiny scale -- train, quantize,
size parameters, deploy the enclave, attest, distribute keys, serve
encrypted requests through every pipeline, and verify the paper's claims at
each step.  If this test passes, the repository's pieces compose.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    CryptonetsPipeline,
    HybridPipeline,
    PlaintextPipeline,
    SimdHybridPipeline,
    parameters_for_pipeline,
    train_paper_models,
)
from repro.nn import agreement_rate


def test_full_story():
    # 1. Train both model variants on the synthetic dataset.
    models = train_paper_models(
        train_size=400, test_size=80, epochs=4,
        image_size=10, channels=2, kernel_size=3,
    )
    q_sigmoid = models.quantized_sigmoid()
    q_square = models.quantized_square()

    # 2. Parameter sizing reflects the pipelines' asymmetric needs.
    hybrid_params = parameters_for_pipeline(q_sigmoid, 256)
    simd_params = parameters_for_pipeline(q_sigmoid, 256, batching=True)
    pure_params = parameters_for_pipeline(q_square, 256)
    assert pure_params.coeff_modulus > hybrid_params.coeff_modulus

    images = models.dataset.test_images[:4]
    plain_sigmoid = PlaintextPipeline(q_sigmoid).infer(images)
    plain_square = PlaintextPipeline(q_square).infer(images)

    # 3. The hybrid framework: attested deployment, bit-exact inference,
    #    one enclave crossing, positive noise budget.
    hybrid = HybridPipeline(q_sigmoid, hybrid_params, seed=55)
    hybrid_result = hybrid.infer(images)
    assert np.array_equal(hybrid_result.logits, plain_sigmoid.logits)
    assert hybrid_result.enclave_crossings == 1
    assert hybrid_result.noise_budget_bits > 0

    # 4. The pure-HE baseline: bit-exact against ITS reference, slower.
    cn = CryptonetsPipeline(q_square, pure_params, seed=55)
    cn_result = cn.infer(images)
    assert np.array_equal(cn_result.logits, plain_square.logits)
    assert cn_result.total_elapsed_s > hybrid_result.total_elapsed_s

    # 5. The SIMD extension: same answers, shared ciphertexts.
    simd = SimdHybridPipeline(q_sigmoid, simd_params, seed=55)
    simd_result = simd.infer(images)
    assert np.array_equal(simd_result.logits, plain_sigmoid.logits)

    # 6. Predictions agree across every privacy-preserving path.
    assert agreement_rate(hybrid_result.predictions, plain_sigmoid.predictions) == 1.0
    assert agreement_rate(simd_result.predictions, plain_sigmoid.predictions) == 1.0

    # 7. The FakeSGX control isolates the enclave's cost without changing
    #    a single logit.
    fake = HybridPipeline(q_sigmoid, hybrid_params, mode="fake", seed=55)
    fake_result = fake.infer(images)
    assert np.array_equal(fake_result.logits, plain_sigmoid.logits)
    assert fake_result.total_overhead_s == 0.0
    assert hybrid_result.total_overhead_s > 0.0
