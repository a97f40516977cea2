#!/usr/bin/env python
"""Fused hot-path kernels vs the reference formulas, in one process.

The library computes with prime-stacked GEMM NTTs, lazy/deferred
reduction, tap-batched conv/dense contractions and the probe-based constant
decrypt.  This benchmark records the *pre-change* behaviour by running the
same deployment over the oracle context (:mod:`repro.he.oracle`: per-prime
``NttPlan`` loops, full ``%`` everywhere, per-tap Python loops), then over
the production context, and reports:

* an NTT microbenchmark (the stacked GEMM transform vs per-prime butterfly
  transforms, both domains, with the ``tracemalloc`` peak of each) on this
  run's ring and on the two shapes the e2e workloads transform: the
  ``(3, 144, 2, 1024)`` encrypt stack of ``direct_closed`` and a
  ``(16, 2, 8, 256)`` auxiliary-basis chunk of ``cryptonets_direct``;
* the two packed-flush kernels on the flush's own ``(16, 288)`` shape:
  ``decrypt_poly`` (full-polynomial decrypt of a lane-packed batch: Python-int
  CRT lift + rounding vs the int64 Garner lift + int64 rounding) and
  ``pack_fold`` (``multiply_plain`` + ``sum_batch`` over the stacked batch
  vs ``pack_coefficients``' deferred-reduction multiply-accumulate over the
  16 un-stacked requests, with the ``tracemalloc`` peak of each);
* the pure-HE activation on the ``cryptonets_direct`` workload's own
  ``(1, 2, 8, 8)`` batch: ``ct_multiply`` (``Evaluator.square``: Python-int
  tensor product vs the int64 RNS kernel) and ``relinearize`` (digits off the
  Python-int lift vs limb arithmetic on mixed-radix digits), with the
  ``tracemalloc`` peak of each;
* a fig8-style end-to-end hybrid (``EncryptSGX``) inference comparison on
  the simulated clock (real compute + modeled SGX overhead);
* a bit-identity audit -- encrypted input, conv output, FC logits, the
  decrypted polynomials, the folded ciphertext, the size-3 product and the
  relinearized ciphertext must match the reference *bytes*, and the
  operation tallies must be identical.

Emits ``BENCH_hotpath.json`` and exits nonzero if any bit-identity check
fails or the end-to-end speedup falls below ``--min-speedup`` (default 3x).

Run ``--smoke`` for the CI-sized configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

import numpy as np

from repro.core import HybridPipeline, heops, parameters_for_pipeline, train_paper_models
from repro.he import modmath, oracle
from repro.he.batching import pack_coefficients, read_lanes, write_lanes
from repro.he.context import Ciphertext, Context, Plaintext
from repro.he.decryptor import Decryptor
from repro.he.encoders import ScalarEncoder
from repro.he.encryptor import Encryptor, SymmetricEncryptor
from repro.he.evaluator import Evaluator, OperationCounter, PlainOperand
from repro.he.keys import KeyGenerator
from repro.he.polyring import PolyContext

#: Requests x tensor positions of one full serving flush (``packed_waves``).
FLUSH_SHAPE = (16, 288)
#: The conv output ``cryptonets_direct`` squares per image: the relinearize
#: kernel's micro-bench shape.  The workload itself relinearizes its
#: ``(1, 10)`` logits, after pool and fc (``ir.build_cryptonets_graph``).
ACTIVATION_SHAPE = (1, 2, 8, 8)
#: ``direct_closed``'s client encrypt: ``u``, ``e1 + Delta*m``, ``e2`` of a
#: 12 x 12 image stacked into one transform at n = 1024 over two 30-bit primes.
ENCRYPT_DEGREE = 1024
ENCRYPT_BATCH = (3, 144)
#: One ``_TENSOR_CHUNK_COEFFS`` chunk of ``cryptonets_direct``'s multiply
#: lifted to the auxiliary basis: 16 size-2 ciphertexts at n = 256.
AUX_DEGREE = 256
AUX_BATCH = (16, 2)


def _time_ntt(ring, batch: tuple[int, ...], reps: int, rng) -> dict:
    """Median seconds and ``tracemalloc`` peak per forward/inverse transform
    of a ``(*batch, k, n)`` residue tensor, by the oracle's ring and by
    ``ring``."""
    x = ring.sample_uniform(rng, *batch)
    out: dict = {"batch": list(batch), "shape": list(x.shape)}
    reference = oracle.Ring(ring.n, ring.primes.tolist())
    for name, each in (("reference", reference), ("fused", ring)):
        each.intt(each.ntt(x))  # warm: both directions' tables
        fwd, inv = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            y = each.ntt(x)
            fwd.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            each.intt(y)
            inv.append(time.perf_counter() - t0)
        peak = _peak_mib(lambda: each.ntt(x))
        out[name] = {
            "forward_s": float(np.median(fwd)),
            "inverse_s": float(np.median(inv)),
            "forward_peak_mib": peak,
        }
    out["forward_speedup"] = out["reference"]["forward_s"] / out["fused"]["forward_s"]
    out["inverse_speedup"] = out["reference"]["inverse_s"] / out["fused"]["inverse_s"]
    return out


def _median_seconds(fn, reps: int) -> tuple[float, object]:
    """Median wall seconds of ``fn()`` after one warm call, and its result."""
    result = fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _time_flush_kernels(params, reps: int, rng) -> tuple[dict, dict, dict]:
    """The packed flush's decrypt and fold, reference vs fused.

    Returns the ``decrypt_poly`` row, the ``pack_fold`` row and their
    bit-identity flags.
    """
    context = Context(params)
    keys = KeyGenerator(context, rng).generate()
    encryptor = SymmetricEncryptor(context, keys.secret, rng)
    decryptor = Decryptor(context, keys.secret)
    half_t = params.plain_modulus // 2
    rows = rng.integers(-half_t, half_t + 1, size=FLUSH_SHAPE)

    # decrypt_poly: the full-polynomial decrypt the coefficient crossing
    # (activation_pool on the served request format) and the client's read
    # of a served result (logits in coefficients) pay.
    lane_ct = encryptor.encrypt(write_lanes(context, rows))
    reference = Decryptor(oracle.Context(params), keys.secret)
    ref_s, ref_plain = _median_seconds(lambda: reference.decrypt(lane_ct), reps)
    fus_s, fus_plain = _median_seconds(lambda: decryptor.decrypt(lane_ct), reps)
    decoded = read_lanes(fus_plain, FLUSH_SHAPE[0])
    decrypt_row = {
        "shape": [1, FLUSH_SHAPE[1]],
        "reference_s": ref_s,
        "fused_s": fus_s,
        "speedup": ref_s / fus_s,
    }

    # pack_fold: the host-side stride-1 fold of scalar requests into coefficients.
    stacked = encryptor.encrypt(ScalarEncoder(context).encode(rows))
    requests = [stacked[b : b + 1].copy() for b in range(FLUSH_SHAPE[0])]
    composed_eval = Evaluator(context, OperationCounter())
    fused_eval = Evaluator(context, OperationCounter())
    monomials = np.eye(FLUSH_SHAPE[0], context.poly_degree, dtype=np.int64)
    x_powers = composed_eval.transform_plain(Plaintext(context, monomials)).data

    def fused():
        # Stride 1, one request per coefficient; the flush folds with
        # stride H*W instead, P = n // (H*W) images per ciphertext.
        return pack_coefficients(fused_eval, requests)

    def composed():
        # The same x^b operand the fused fold reads, as the old two calls.
        operand = PlainOperand(context, x_powers[:, None])
        return composed_eval.sum_batch(composed_eval.multiply_plain(stacked, operand), axis=0)

    fused_s, fused_ct = _median_seconds(fused, reps)
    composed_s, composed_ct = _median_seconds(composed, reps)
    composed_peak, fused_peak = _peak_mib(composed), _peak_mib(fused)
    fold_row = {
        "shape": list(FLUSH_SHAPE),
        "reference_s": composed_s,
        "fused_s": fused_s,
        "speedup": composed_s / fused_s,
        "reference_peak_mib": composed_peak,
        "fused_peak_mib": fused_peak,
        "peak_ratio": composed_peak / fused_peak,
    }
    identity = {
        "decrypt_poly": bool(
            np.array_equal(ref_plain.coeffs, fus_plain.coeffs)
            and np.array_equal(decoded, rows)
        ),
        "pack_fold": bool(np.array_equal(composed_ct.data, fused_ct.data)),
        "pack_fold_tallies": composed_eval.counter.counts == fused_eval.counter.counts,
    }
    return decrypt_row, fold_row, identity


def _on(context, ct):
    """``ct`` carried into ``context`` unchanged, so its domain conversions
    run on that context's ring."""
    return Ciphertext(context, ct.data, ct.is_ntt)


def _reference_vs_fused(context, fn, reps: int) -> tuple[dict, dict, dict]:
    """Time and ``tracemalloc`` ``fn(evaluator)`` over the oracle context and
    over ``context``; returns the row, the last result per side and the op
    tallies per side."""
    row: dict = {"shape": list(ACTIVATION_SHAPE)}
    results, tallies = {}, {}
    for name, each in (("reference", oracle.Context(context.params)), ("fused", context)):
        evaluator = Evaluator(each, OperationCounter())
        row[f"{name}_s"], results[name] = _median_seconds(lambda: fn(evaluator), reps)
        row[f"{name}_peak_mib"] = _peak_mib(lambda: fn(evaluator))
        tallies[name] = dict(evaluator.counter.counts)
    row["speedup"] = row["reference_s"] / row["fused_s"]
    return row, results, tallies


def _time_ct_kernels(params, reps: int, rng) -> tuple[dict, dict, dict]:
    """The pure-HE activation's two halves, reference vs fused.

    Returns the ``ct_multiply`` row, the ``relinearize`` row and their
    bit-identity flags.
    """
    context = Context(params)
    keygen = KeyGenerator(context, rng)
    keys = keygen.generate()
    relin_keys = keygen.relin_keys(keys.secret)
    values = rng.integers(-1000, 1000, size=ACTIVATION_SHAPE)
    ct = Encryptor(context, keys.public, rng).encrypt(ScalarEncoder(context).encode(values))
    multiply_row, products, multiply_tallies = _reference_vs_fused(
        context, lambda evaluator: evaluator.square(_on(evaluator.context, ct)), reps
    )
    relin_row, relined, relin_tallies = _reference_vs_fused(
        context,
        lambda evaluator: evaluator.relinearize(
            _on(evaluator.context, products["fused"]), relin_keys
        ),
        reps,
    )
    identity = {
        "ct_multiply": products["reference"].data.tobytes() == products["fused"].data.tobytes(),
        "relinearize": relined["reference"].data.tobytes() == relined["fused"].data.tobytes(),
        "ct_multiply_tallies": (
            multiply_tallies["reference"] == multiply_tallies["fused"]
            and relin_tallies["reference"] == relin_tallies["fused"]
        ),
    }
    return multiply_row, relin_row, identity


def _run_pipeline(context_type, quantized, params, images, reps: int):
    """Fig8-style hybrid inference over one context type (its enclave's
    decrypt and re-encrypt included).

    Returns the median simulated-clock latency plus every intermediate the
    bit-identity audit compares.
    """
    pipe = HybridPipeline(quantized, params, seed=13, context_type=context_type)
    pipe.infer(images)  # warm: first run pays lazy caches
    results = [pipe.infer(images) for _ in range(reps)]
    elapsed = sorted(r.total_elapsed_s for r in results)
    median = elapsed[len(elapsed) // 2]
    result = results[-1]
    ct = pipe.encrypt_images(images)
    conv = heops.he_conv2d(pipe.evaluator, pipe.encoder, ct, pipe.conv_weights)
    return {
        "pipe": pipe,
        "result": result,
        "median_s": median,
        "stage_s": {s.name: s.elapsed_s for s in result.stages},
        "input_ct": ct,
        "conv_ct": conv.to_ntt(),
        "counts": dict(pipe.counter.counts),
    }


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized model and parameters"
    )
    parser.add_argument("--batch", type=int, default=4, help="images per inference")
    parser.add_argument("--reps", type=int, default=3, help="timed repetitions")
    parser.add_argument(
        "--out", default="BENCH_hotpath.json", help="JSON results path"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail below this fused-vs-reference end-to-end speedup",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        train_kwargs = dict(
            train_size=300, test_size=60, epochs=2, image_size=10, channels=2,
            kernel_size=3,
        )
        poly_degree = 256
    else:
        train_kwargs = dict(train_size=1200, test_size=300, epochs=6)
        poly_degree = 1024

    print(f"training model ({'smoke' if args.smoke else 'full'} config)...")
    models = train_paper_models(**train_kwargs)
    quantized = models.quantized_sigmoid()
    params = parameters_for_pipeline(quantized, poly_degree)
    images = models.dataset.test_images[: args.batch]

    ring = Context(params).ring
    rng = np.random.default_rng(99)
    print("NTT microbenchmark...")
    ntt_report = _time_ntt(ring, (512,), reps=max(3, args.reps), rng=rng)
    # The shapes the e2e workloads transform, whatever this run's model size.
    encrypt_primes = modmath.ntt_primes(30, ENCRYPT_DEGREE, 2)
    aux_primes = Context(
        parameters_for_pipeline(models.quantized_square(), AUX_DEGREE)
    ).aux_basis.primes
    for row, workload_ring, batch in (
        ("encrypt_stack", PolyContext(ENCRYPT_DEGREE, encrypt_primes), ENCRYPT_BATCH),
        ("cryptonets_aux", PolyContext(AUX_DEGREE, aux_primes), AUX_BATCH),
    ):
        ntt_report[row] = _time_ntt(workload_ring, batch, reps=max(3, args.reps), rng=rng)
    ntt_report["fused_forward_s"] = ntt_report["encrypt_stack"]["fused"]["forward_s"]

    print("packed-flush kernels (full-polynomial decrypt, coefficient fold)...")
    decrypt_report, fold_report, flush_identity = _time_flush_kernels(
        parameters_for_pipeline(quantized, poly_degree, batching=True),
        reps=max(3, args.reps),
        rng=rng,
    )

    print("pure-HE activation kernels (ciphertext multiply, relinearize)...")
    multiply_report, relin_report, ct_identity = _time_ct_kernels(
        parameters_for_pipeline(models.quantized_square(), poly_degree),
        reps=max(3, args.reps),
        rng=rng,
    )

    print("end-to-end hybrid inference, reference kernels (pre-change baseline)...")
    ref = _run_pipeline(oracle.Context, quantized, params, images, args.reps)
    print("end-to-end hybrid inference, fused kernels...")
    fus = _run_pipeline(Context, quantized, params, images, args.reps)

    identity = {
        "logits": bool(np.array_equal(ref["result"].logits, fus["result"].logits)),
        "encrypted_input": bool(
            np.array_equal(ref["input_ct"].data, fus["input_ct"].data)
        ),
        "conv_ciphertext": bool(
            np.array_equal(ref["conv_ct"].data, fus["conv_ct"].data)
        ),
        "op_tallies": ref["counts"] == fus["counts"],
        **flush_identity,
        **ct_identity,
    }
    bit_identical = all(identity.values())
    speedup = ref["median_s"] / fus["median_s"]

    report = {
        "config": {
            "mode": "smoke" if args.smoke else "full",
            "batch": args.batch,
            "reps": args.reps,
            "poly_degree": params.poly_degree,
            "rns_primes": len(params.coeff_primes),
            "plain_modulus": params.plain_modulus,
            "min_speedup": args.min_speedup,
        },
        "ntt": ntt_report,
        "decrypt_poly": decrypt_report,
        "pack_fold": fold_report,
        "ct_multiply": multiply_report,
        "relinearize": relin_report,
        "baseline_reference": {
            "simulated_s": ref["median_s"],
            "stages_s": ref["stage_s"],
        },
        "fused": {
            "simulated_s": fus["median_s"],
            "stages_s": fus["stage_s"],
        },
        "speedup": speedup,
        "bit_identical": identity,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    for row in (ntt_report, ntt_report["encrypt_stack"], ntt_report["cryptonets_aux"]):
        print(
            f"NTT {row['shape']}: forward {row['forward_speedup']:.2f}x "
            f"({row['reference']['forward_s'] * 1e3:.2f} -> "
            f"{row['fused']['forward_s'] * 1e3:.2f} ms, peak "
            f"{row['reference']['forward_peak_mib']:.1f} -> "
            f"{row['fused']['forward_peak_mib']:.1f} MiB), "
            f"inverse {row['inverse_speedup']:.2f}x"
        )
    print(
        f"decrypt_poly {decrypt_report['speedup']:.2f}x, "
        f"pack_fold {fold_report['speedup']:.2f}x in time and "
        f"{fold_report['peak_ratio']:.2f}x in peak memory (shape {fold_report['shape']})"
    )
    print(
        f"ct_multiply {multiply_report['speedup']:.2f}x "
        f"({multiply_report['reference_s']:.3f} -> {multiply_report['fused_s']:.3f} s, peak "
        f"{multiply_report['reference_peak_mib']:.0f} -> {multiply_report['fused_peak_mib']:.0f} MiB), "
        f"relinearize {relin_report['speedup']:.2f}x (shape {multiply_report['shape']})"
    )
    print(f"reference: {ref['median_s']:.3f} simulated s/inference")
    print(f"fused:     {fus['median_s']:.3f} simulated s/inference")
    print(f"speedup: {speedup:.2f}x   bit-identical: {bit_identical}")
    print(f"wrote {args.out}")

    if not bit_identical:
        failed = [k for k, v in identity.items() if not v]
        print(f"FAIL: fused kernels diverge from reference: {failed}", file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
