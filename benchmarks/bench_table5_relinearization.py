"""Table V: relinearization vs SGX noise reduction.

Paper: relinearization 65.216 ms (STD 1.472); one SGX decrypt/re-encrypt
crossing 95.55 ms (STD 2.459) -- slower per lone ciphertext -- but batching
a batchSize of ciphertexts into one crossing amortizes entry/exit and key
loading down to 23.429 ms each, making the enclave route the winner.

The reproduction squares a batch of ciphertexts and refreshes them three
ways: relinearization, one crossing per ciphertext, one batched crossing.
"""

from __future__ import annotations

import numpy as np

from repro.bench import Summary, format_table, measure_simulated
from repro.core import InferenceEnclave, relinearize_refresh, sgx_refresh, sgx_refresh_one_by_one
from repro.he import Context, Encryptor, Evaluator, ScalarEncoder
from repro.he.keys import PublicKey
from repro.sgx import SgxPlatform


def _rig(params, batch, seed=5):
    platform = SgxPlatform()
    enclave = platform.load_enclave(InferenceEnclave, params, seed)
    public = enclave.ecall("generate_keys")
    context = Context(params)
    public = PublicKey(context, public.p0_ntt, public.p1_ntt)
    rng = np.random.default_rng(seed)
    encoder = ScalarEncoder(context)
    encryptor = Encryptor(context, public, rng)
    evaluator = Evaluator(context)
    relin = enclave.ecall("generate_relin_keys")
    values = rng.integers(-50, 50, size=batch)
    squared = evaluator.square(encryptor.encrypt(encoder.encode(values)))
    return platform, enclave, evaluator, relin, squared


def test_relinearize_single(benchmark, pure_he_params):
    """Raw relinearization speed of one ciphertext."""
    platform, enclave, evaluator, relin, squared = _rig(pure_he_params, 1)
    benchmark(lambda: evaluator.relinearize(squared, relin))


def test_table5_refresh_comparison(benchmark, pure_he_params, scale, emit):
    batch = scale.batch_size * 4
    platform, enclave, evaluator, relin, squared = _rig(pure_he_params, batch)
    reps = max(3, scale.repeats // 2)

    def sweep():
        relin_s = measure_simulated(
            lambda: relinearize_refresh(evaluator, squared, relin, platform.clock),
            platform.clock,
            reps,
        )
        single_s = measure_simulated(
            lambda: sgx_refresh_one_by_one(enclave, squared), platform.clock, reps
        )
        batched_s = measure_simulated(
            lambda: sgx_refresh(enclave, squared), platform.clock, reps
        )
        return relin_s, single_s, batched_s

    relin_s, single_s, batched_s = benchmark.pedantic(sweep, rounds=1, iterations=1)
    per = 1e3 / batch  # -> ms per ciphertext
    s_relin = Summary.of([x * per for x in relin_s])
    s_single = Summary.of([x * per for x in single_s])
    s_batched = Summary.of([x * per for x in batched_s])
    benchmark.extra_info["relin_ms"] = s_relin.mean
    benchmark.extra_info["sgx_single_ms"] = s_single.mean
    benchmark.extra_info["sgx_batched_ms"] = s_batched.mean
    batched_over_relin = s_batched.mean / s_relin.mean
    benchmark.extra_info["sgx_batched_over_relin"] = batched_over_relin
    emit(
        "table5_relinearization",
        format_table(
            ["", "Average", "STD", "96% CI"],
            [
                ["Reline", *s_relin.row()],
                ["SGX (1 crossing/ct)", *s_single.row()],
                ["SGX (batched)", *s_batched.row()],
            ],
            title=(
                f"Table V: per-ciphertext noise-reduction time (/ms), batch={batch}, "
                f"n={pure_he_params.poly_degree}, scale={scale.name} "
                f"(paper: reline 65.216, SGX single 95.55, SGX batched 23.429)"
            ),
        )
        + f"\nSGX (batched) / Reline: {batched_over_relin:.2f} (paper: 0.36)",
    )
    # Shape: unbatched SGX refresh loses to relinearization; batching the
    # crossing amortizes it below the unbatched cost.
    assert s_single.mean > s_batched.mean
    assert s_batched.mean < s_relin.mean * 2  # batched SGX is competitive


def test_refresh_restores_budget(benchmark, pure_he_params):
    """Not a timing claim: the refresh's entire point is the noise reset."""
    platform, enclave, evaluator, relin, squared = _rig(pure_he_params, 4)
    decryptor = enclave._instance._decryptor

    refreshed = benchmark.pedantic(
        lambda: sgx_refresh(enclave, squared).ciphertext, rounds=1, iterations=1
    )
    assert decryptor.invariant_noise_budget(refreshed) > decryptor.invariant_noise_budget(
        evaluator.relinearize(squared, relin)
    )
