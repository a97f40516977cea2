#!/usr/bin/env python
"""Graph-optimizer end-to-end benchmark: images/sec at off / safe.

The graph optimizer (``repro.graph``) compiles each pipeline's inference
chain and applies its one rewrite — coefficient packing of the
scalar-layout enclave crossing — under a hard contract: the optimized
execution is *bit-identical* to the unoptimized reference.  Only the hybrid
pipeline is timed: no pass applies to a CryptoNets graph, so its levels run
the same program.  This bench asks the two questions that make the rewrite
shippable:

* *Is it faster?*  The hybrid pipeline runs the same seeded batch at both
  levels on the simulated clock; ``hybrid.speedup_safe`` must clear the
  ``--min-speedup`` floor (1.3x by default — ``invariants.speedup_floor``).
  Host wall seconds per inference (``hybrid.off_wall_s`` /
  ``hybrid.safe_wall_s``, ``perf_counter`` around the timed reps) are
  reported next to them and never gated.
* *Is it invisible?*  Rep-wise (fresh same-seed deployments advance their
  RNG identically at both levels because the rewrite preserves draw order
  and count), the decrypted logits, the serialized logits-ciphertext bytes
  and the homomorphic op tallies must match the ``off`` run exactly
  (``invariants.bit_identical`` — a hard invariant, independent of
  ``--min-speedup``).

Emits ``BENCH_graph.json``; exits nonzero if an invariant fails.
Run ``--smoke`` for the CI-sized configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core import HybridPipeline, parameters_for_pipeline, train_paper_models
from repro.graph import LEVELS
from repro.he import serialize as ser


def run_level(factory, level, images, reps):
    """Run one untimed warm-up rep (so cold caches don't skew the first
    level measured) and ``reps`` timed inferences on one fresh pipeline
    built by ``factory(level)``; returns (min simulated seconds, mean host
    wall seconds per timed rep, per-rep fingerprints, applied passes).  The
    warm-up's fingerprint is compared too."""
    pipe = factory(level)
    runs = [(pipe.infer(images), dict(pipe.counter.counts))]
    times = []
    start = time.perf_counter()
    for _ in range(reps):
        t0 = pipe.clock.now_s
        res = pipe.infer(images)
        times.append(pipe.clock.now_s - t0)
        runs.append((res, dict(pipe.counter.counts)))
    wall_s = (time.perf_counter() - start) / reps
    fingerprints = [
        (res.logits.tolist(), ser.serialize_ciphertext(res.logits_ct), counts)
        for res, counts in runs
    ]
    return min(times), wall_s, fingerprints, list(pipe.graph_report.applied)


def bench_scheme(factory, levels, images, reps):
    """All levels of one scheme; returns (per-level rows, bit_identical)."""
    rows = {}
    reference = None
    identical = True
    for level in levels:
        sim_s, wall_s, fingerprints, applied = run_level(factory, level, images, reps)
        if level == "off":
            reference = fingerprints
        elif fingerprints != reference:
            identical = False
        rows[level] = {"simulated_s": sim_s, "wall_s": wall_s, "applied": applied}
    return rows, identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument("--out", default="BENCH_graph.json")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.3,
        help="hybrid safe-level end-to-end speedup floor (default 1.3)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        models = train_paper_models(
            300, 60, epochs=2, image_size=10, channels=2, kernel_size=3
        )
        batch = args.batch or 4
        reps = args.reps or 3
    else:
        models = train_paper_models(
            600, 120, epochs=4, image_size=12, channels=2, kernel_size=3
        )
        batch = args.batch or 8
        reps = args.reps or 5

    q_sigmoid = models.quantized_sigmoid()
    hybrid_params = parameters_for_pipeline(q_sigmoid, 256)
    images = models.dataset.test_images[:batch]

    hybrid_rows, bit_identical = bench_scheme(
        lambda level: HybridPipeline(
            q_sigmoid, hybrid_params, seed=args.seed, graph_optimizer=level
        ),
        LEVELS,
        images,
        reps,
    )

    off_s = hybrid_rows["off"]["simulated_s"]
    safe_s = hybrid_rows["safe"]["simulated_s"]
    speedup_safe = off_s / safe_s

    report = {
        "config": {
            "mode": "smoke" if args.smoke else "full",
            "seed": args.seed,
            "batch": batch,
            "reps": reps,
            "min_speedup": args.min_speedup,
        },
        "hybrid": {
            "off_simulated_s": off_s,
            "safe_simulated_s": safe_s,
            "speedup_safe": speedup_safe,
            "images_per_s_safe": batch / safe_s,
            "off_wall_s": hybrid_rows["off"]["wall_s"],
            "safe_wall_s": hybrid_rows["safe"]["wall_s"],
            "applied_safe": hybrid_rows["safe"]["applied"],
        },
        "invariants": {
            "bit_identical": bit_identical,
            "speedup_floor": speedup_safe >= args.min_speedup,
        },
    }

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, default=str)
        fh.write("\n")

    print(
        f"hybrid: off {off_s:.3f}s  safe {safe_s:.3f}s ({speedup_safe:.2f}x) "
        f"simulated; off {hybrid_rows['off']['wall_s']:.3f}s  "
        f"safe {hybrid_rows['safe']['wall_s']:.3f}s host wall"
    )
    print(f"bit identical across levels: {bit_identical}")

    if not bit_identical:
        print("FAIL: optimized execution diverged from the reference", file=sys.stderr)
        return 1
    if speedup_safe < args.min_speedup:
        print(
            f"FAIL: hybrid safe speedup {speedup_safe:.2f}x below the "
            f"{args.min_speedup:.2f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
