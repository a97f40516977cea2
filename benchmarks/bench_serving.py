#!/usr/bin/env python
"""Serving on the simulated timeline: one deployment recipe, four segments.

The paper's Section VIII predicts that packing multiplies throughput;
:mod:`repro.serve` turns that into a serving stack (packed flushes, an
event-driven admission loop, an enclave fleet, a flush worker pool).  This
bench trains one model and drives that stack through four segments, writing
one ``BENCH_serving.json``:

* ``packing`` -- 16 single-image requests served one pipeline pass each,
  then lane-packed into one flush.  ``packing.speedup`` is the one ratio
  here a clock produces (the :class:`~repro.sgx.clock.SimClock`: measured
  compute plus the SGX cost model); ``--min-speedup`` applies to it alone.
* ``loop`` -- a seeded Poisson phase then a 4x on/off burst through
  :class:`~repro.serve.ServingLoop`.  Its numbers live on the loop's
  *virtual* timeline, where a flush costs ``ServiceTimeModel.flush_s``: they
  pin the admission policy (who is admitted, shed, evicted, how full the
  slot groups run), deterministically -- they are not throughput
  predictions.  ``loop.slo.*`` holds the paying classes' p99 queue wait
  under the admission SLO through the burst and the shed rate under its cap.
* ``fleet`` -- one saturating trace on 1, 2 and 4 replicas, then on 2 with
  replica 0 destroyed at its fourth dispatch.  Replicas share one migrated
  key pair, so every served request must decrypt to the plaintext reference
  bit for bit, and the failover must resolve every ticket on the survivor.
  Replicas execute serially in this process, so the fleet buys
  availability, not throughput.  ``wall_images_per_s`` cannot show that
  either way: the sizes run in one order (1, 2, 4) in one process, so the
  row confounds warm-up with replica count (the checked-in baseline reads
  1360 / 1709 / 1840).
* ``workers`` -- a fixed identity batch through fresh same-seed deployments
  at 1, 2 and 4 pool workers: the serialized logits ciphertexts must be
  byte-identical across widths.  No flush reaches the pool
  (``dispatched_units`` reads 0), so ``wall_images_per_s`` per width is the
  pool's cost when idle.  The chaos half runs the walk that still
  dispatches, the in-process hybrid pipeline's scalar contractions, at 2
  workers with one SIGKILLed mid-contraction: its units replay in-process
  and its result bytes must equal the 1-worker run's.

Every segment records its host ``wall_s``; ``wall_*`` fields are
report-only.  Everything else except the ``packing`` segment's
clock-measured numbers is a function of ``--seed``.  Exits nonzero when an
invariant in :data:`INVARIANTS` fails or ``packing.speedup`` is below
``--min-speedup``.  Run ``--smoke`` for the CI-sized configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import faults
from repro.client import AttestedClient
from repro.core import (
    EdgeServer,
    HybridPipeline,
    PipelineSpec,
    PlaintextPipeline,
    parameters_for_pipeline,
    train_paper_models,
)
from repro.faults import FaultPlan, FaultRule
from repro.he import parallel
from repro.he import serialize as ser
from repro.serve import (
    InferenceRequest,
    LoopConfig,
    ServingLoop,
    bursty_trace,
    merge,
    poisson_trace,
)
from repro.sgx import AttestationVerificationService

#: Dotted paths into the report that must all be true.
INVARIANTS = (
    "packing.predictions_match",
    "loop.slo.p99_bounded",
    "loop.slo.shed_rate_bounded",
    "loop.slo.all_tickets_resolved",
    "loop.bit_identical",
    "fleet.bit_identical",
    "fleet.all_tickets_resolved",
    "fleet.failover_resolved",
    "fleet.failover_bit_identical",
    "workers.byte_identical",
    "workers.bit_identical",
    "workers.all_tickets_resolved",
    "workers.chaos_recovered",
    "workers.chaos_byte_identical",
)

SIZES = (1, 2, 4)
PACKED_REQUESTS = 16
SHED_RATE_CAP = 0.35

SMOKE = dict(
    train=dict(
        train_size=300, test_size=60, epochs=2, image_size=10, channels=2,
        kernel_size=3,
    ),
    poly_degree=256, loop_batch=8, image_pool=6, users=1000,
    steady_rps=350.0, steady_s=0.2, burst_s=0.2, burst_period_s=0.1,
    saturating_rps=4500.0,
)
FULL = dict(
    train=dict(train_size=1200, test_size=300, epochs=6),
    poly_degree=1024, loop_batch=16, image_pool=8, users=4000,
    steady_rps=600.0, steady_s=0.5, burst_s=0.5, burst_period_s=0.2,
    saturating_rps=9000.0,
)

#: The loop segment's policy under test: a 30 ms admission SLO on a 64-deep
#: queue.  The fleet and workers segments replay a closed bolus instead (no
#: shedding), so every size serves the identical request set.
SLO_CONFIG = LoopConfig(window_s=0.010, max_queue_depth=64, admit_wait_slo_s=0.030)
BOLUS_CONFIG = LoopConfig(window_s=0.010, max_queue_depth=4096, admit_wait_slo_s=30.0)


def build_deployment(quantized, cfg, *, max_batch, fleet_size=1, workers=None):
    """One deployment plus its attested client session, built declaratively
    so ``PipelineSpec`` is the configuration path under test."""
    spec = PipelineSpec(
        scheme="hybrid",
        poly_degree=cfg["poly_degree"],
        batching=True,
        max_batch=max_batch,
        fleet_size=fleet_size,
        workers=workers,
    )
    server = EdgeServer.from_spec(spec, seed=13, sizing_model=quantized)
    server.provision_model("digits", quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x42" * 32).establish()
    return server, client


def encrypt_each(client, images):
    return [client.encrypt("digits", images[i : i + 1]) for i in range(len(images))]


def replay(server, client, trace, images, expected, config):
    """Replay ``trace`` through a fresh loop over a freshly encrypted image
    pool; returns the loop, its report (plus the paying-class p99 and the
    measured wall throughput), and whether every served request decrypts to
    the plaintext reference."""
    pool = encrypt_each(client, images)
    loop = ServingLoop(server, config)
    start = time.perf_counter()
    for arrival in trace:
        loop.offer(arrival, pool[arrival.image_index])
    loop.run()
    wall_s = time.perf_counter() - start
    report = loop.report()
    paying = [t.queue_wait_s for t in loop.tickets if t.served and t.priority <= 1]
    report["p99_queue_wait_paying_s"] = (
        float(np.percentile(paying, 99)) if paying else 0.0
    )
    report["all_tickets_resolved"] = all(t.done() for t in loop.tickets)
    report["wall_images_per_s"] = report["served_images"] / wall_s
    exact = all(
        np.array_equal(
            client.decrypt_logits(t.result()),
            expected[t.image_index : t.image_index + 1],
        )
        for t in loop.tickets
        if t.served
    )
    return loop, report, exact


def identity_batch(server, client, images):
    """One scheduler drain of a fixed batch: the per-request serialized
    logits-ciphertext bytes and decrypted logits."""
    responses = [server.scheduler.submit("digits", ct) for ct in encrypt_each(client, images)]
    server.scheduler.drain()
    blobs = [ser.serialize_ciphertext(r.result().logits_ct) for r in responses]
    return blobs, [client.decrypt_logits(r.result()) for r in responses]


def packing_segment(quantized, cfg, images):
    server, client = build_deployment(quantized, cfg, max_batch=PACKED_REQUESTS)
    clock = server.platform.clock
    requests = encrypt_each(client, images)
    reference = PlaintextPipeline(quantized).infer(images).predictions

    start = clock.now_s
    direct = [
        server.infer(InferenceRequest(model="digits", ciphertext=ct)) for ct in requests
    ]
    direct_s = clock.now_s - start
    direct_preds = np.concatenate([client.decrypt(r) for r in direct])

    start = clock.now_s
    responses = [server.scheduler.submit("digits", ct) for ct in requests]
    server.scheduler.drain()
    packed_s = clock.now_s - start
    packed_preds = np.concatenate([client.decrypt(r.result()) for r in responses])

    return {
        "requests": len(requests),
        "direct": {"simulated_s": direct_s, "images_per_s": len(requests) / direct_s},
        "packed": {
            "simulated_s": packed_s,
            "images_per_s": len(requests) / packed_s,
            "flushes": server.scheduler.stats.flushes,
        },
        "speedup": direct_s / packed_s,
        "predictions_match": bool(
            np.array_equal(packed_preds, direct_preds)
            and np.array_equal(packed_preds, reference)
        ),
    }


def loop_segment(quantized, cfg, seed, images, expected):
    steady = poisson_trace(
        seed, rate_rps=cfg["steady_rps"], duration_s=cfg["steady_s"],
        users=cfg["users"], image_pool=len(images),
    )
    burst = bursty_trace(
        seed + 1, base_rate_rps=cfg["steady_rps"], burst_factor=4.0,
        period_s=cfg["burst_period_s"], duration_s=cfg["burst_s"],
        users=cfg["users"], image_pool=len(images),
    ).shifted(cfg["steady_s"])
    trace = merge(steady, burst)
    server, client = build_deployment(quantized, cfg, max_batch=cfg["loop_batch"])
    _, report, exact = replay(server, client, trace, images, expected, SLO_CONFIG)
    resolved = report.pop("all_tickets_resolved")
    return {
        **report,
        "slo": {
            "p99_bound_s": SLO_CONFIG.admit_wait_slo_s,
            "p99_bounded": report["p99_queue_wait_paying_s"]
            <= SLO_CONFIG.admit_wait_slo_s,
            "shed_rate_cap": SHED_RATE_CAP,
            "shed_rate_bounded": report["shed_rate"] <= SHED_RATE_CAP,
            "all_tickets_resolved": resolved,
        },
        "bit_identical": exact,
    }


def _size_row(report):
    return {key: report[key] for key in ("served", "flushes", "wall_images_per_s")}


def fleet_segment(quantized, cfg, seed, trace, images, expected):
    sizes, exact, resolved = {}, True, True
    for fleet_size in SIZES:
        server, client = build_deployment(
            quantized, cfg, max_batch=cfg["loop_batch"], fleet_size=fleet_size
        )
        loop, report, ok = replay(server, client, trace, images, expected, BOLUS_CONFIG)
        exact, resolved = exact and ok, resolved and report["all_tickets_resolved"]
        sizes[str(fleet_size)] = {
            **_size_row(report),
            "replicas_used": sorted({f["replica"] for f in loop.flush_log}),
        }

    # Replica 0 destroyed at its 4th dispatch -- mid-trace, with batches in
    # flight behind it.
    server, client = build_deployment(
        quantized, cfg, max_batch=cfg["loop_batch"], fleet_size=2
    )
    plan = FaultPlan(
        seed,
        rules=[FaultRule(site="serve.fleet.replica", name="0", after=3, max_fires=1)],
    )
    with faults.armed(plan):
        _, report, fo_exact = replay(server, client, trace, images, expected, BOLUS_CONFIG)
    retired = sorted(server.fleet.retired_replicas())
    return {
        "arrivals": len(trace),
        "sizes": sizes,
        "failover": {
            "fired": plan.fires("serve.fleet.replica"),
            "retired": retired,
            "live": server.fleet.live_replicas(),
            "served": report["served"],
        },
        "bit_identical": exact,
        "all_tickets_resolved": resolved,
        "failover_resolved": report["all_tickets_resolved"] and retired == [0],
        "failover_bit_identical": fo_exact,
    }


def _reset_pool():
    """Return the process to the in-process default between widths."""
    parallel.configure(None)
    parallel.shutdown()


def hybrid_identity(quantized, cfg, images):
    """The in-process hybrid pipeline's serialized result bytes and logits
    for ``images``: its scalar conv and fc contractions reach the pool."""
    params = parameters_for_pipeline(quantized, cfg["poly_degree"])
    result = HybridPipeline(quantized, params, seed=13).infer(images)
    return ser.serialize_ciphertext(result.logits_ct), result.logits


def _logits_match(logits, expected):
    return all(np.array_equal(lg, expected[i : i + 1]) for i, lg in enumerate(logits))


def workers_segment(quantized, cfg, seed, trace, images, expected):
    sizes, blobs_by_width, exact, resolved = {}, {}, True, True
    for workers in SIZES:
        server, client = build_deployment(
            quantized, cfg, max_batch=PACKED_REQUESTS, workers=workers
        )
        # Identity batch first: fixed composition, one drain -- the
        # serialized bytes must not know the worker count.
        blobs_by_width[workers], logits = identity_batch(server, client, images)
        _, report, ok = replay(server, client, trace, images, expected, BOLUS_CONFIG)
        exact = exact and ok and _logits_match(logits, expected)
        resolved = resolved and report["all_tickets_resolved"]
        pool = parallel.active_pool()
        sizes[str(workers)] = {
            **_size_row(report),
            "dispatched_units": pool.dispatched_units if pool else 0,
        }
        _reset_pool()

    # Worker 0 SIGKILLed at its second dispatch of the hybrid pipeline's
    # contractions: the generation retires, every unit replays in-process,
    # the bytes still match the 1-worker run.
    chaos_images = images[:2]
    reference_blob, _ = hybrid_identity(quantized, cfg, chaos_images)
    plan = FaultPlan(
        seed, rules=[FaultRule(site="parallel.worker", name="0", after=1, max_fires=1)]
    )
    with parallel.use(2), faults.armed(plan):
        chaos_blob, chaos_logits = hybrid_identity(quantized, cfg, chaos_images)
        pool = parallel.active_pool()
    chaos = {
        "fired": plan.fires("parallel.worker"),
        "deaths": pool.deaths if pool else 0,
        "replayed_units": pool.replayed_units if pool else 0,
    }
    _reset_pool()
    return {
        "sizes": sizes,
        "chaos": chaos,
        "byte_identical": all(blobs_by_width[w] == blobs_by_width[1] for w in SIZES),
        "bit_identical": exact,
        "all_tickets_resolved": resolved,
        "chaos_recovered": chaos["fired"] == 1
        and chaos["deaths"] == 1
        and chaos["replayed_units"] >= 1,
        "chaos_byte_identical": chaos_blob == reference_blob
        and np.array_equal(chaos_logits, expected[: len(chaos_images)]),
    }


def _lookup(report, dotted):
    for part in dotted.split("."):
        report = report[part]
    return report


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized model and traces")
    parser.add_argument("--seed", type=int, default=42, help="trace + fault seed")
    parser.add_argument("--out", default="BENCH_serving.json", help="JSON results path")
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="fail below this packed-vs-direct SimClock speedup (packing.speedup)",
    )
    args = parser.parse_args(argv)
    cfg = SMOKE if args.smoke else FULL

    print(f"training model ({'smoke' if args.smoke else 'full'} config)...")
    models = train_paper_models(**cfg["train"])
    quantized = models.quantized_sigmoid()
    images = models.dataset.test_images[: cfg["image_pool"]]
    expected = PlaintextPipeline(quantized).infer(images).logits
    saturating = poisson_trace(
        args.seed, rate_rps=cfg["saturating_rps"], duration_s=0.08,
        users=cfg["users"], image_pool=len(images),
    )

    def timed(name, segment, *segment_args):
        print(f"running {name} segment...")
        start = time.perf_counter()
        result = segment(quantized, cfg, *segment_args)
        result["wall_s"] = time.perf_counter() - start
        return result

    report = {
        "config": {
            "mode": "smoke" if args.smoke else "full",
            "seed": args.seed,
            "poly_degree": cfg["poly_degree"],
            "service_base_s": SLO_CONFIG.service_model.base_s,
            "service_per_image_s": SLO_CONFIG.service_model.per_image_s,
        },
        "packing": timed(
            "packing", packing_segment, models.dataset.test_images[:PACKED_REQUESTS]
        ),
        "loop": timed("loop", loop_segment, args.seed, images, expected),
        "fleet": timed("fleet", fleet_segment, args.seed, saturating, images, expected),
        "workers": timed(
            "workers", workers_segment, args.seed, saturating, images, expected
        ),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    packing, loop = report["packing"], report["loop"]
    print(
        f"packing: {packing['direct']['images_per_s']:.1f} -> "
        f"{packing['packed']['images_per_s']:.1f} images/s on the SimClock "
        f"({packing['speedup']:.2f}x)"
    )
    print(
        f"loop (virtual timeline): {loop['images_per_s']:.0f} images/s, occupancy "
        f"{loop['occupancy_mean']:.2f}, p99 wait {loop['p99_queue_wait_s'] * 1e3:.1f} ms "
        f"(paying {loop['p99_queue_wait_paying_s'] * 1e3:.1f} ms), "
        f"shed rate {loop['shed_rate']:.2%}"
    )
    for name in ("fleet", "workers"):
        walls = ", ".join(
            f"{size}: {row['wall_images_per_s']:.1f}"
            for size, row in report[name]["sizes"].items()
        )
        print(f"{name}: measured wall images/s by size -- {walls}")
    print(f"wrote {args.out}")

    failures = [f"invariant {path} violated" for path in INVARIANTS if not _lookup(report, path)]
    if packing["speedup"] < args.min_speedup:
        failures.append(
            f"packing.speedup {packing['speedup']:.2f}x below required {args.min_speedup}x"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(run())
