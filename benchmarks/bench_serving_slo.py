#!/usr/bin/env python
"""Serving SLOs under open-loop traffic: the event-driven loop vs a windowed baseline.

``bench_serving_throughput.py`` measures one closed batch of concurrent
requests; this bench asks the deployment question the paper's edge-serving
story (Section VIII) implies but never measures: *what tail latency do a
thousand open-loop users see, and what does a 4x burst do to it?*

It drives one :class:`~repro.serve.ServingLoop` with a seeded synthetic
trace -- a steady Poisson phase followed by a 4x on/off burst phase, both
from :mod:`repro.serve.traffic` -- and reports, on the loop's deterministic
virtual timeline:

* ``continuous.*`` -- p50/p99 queue wait, images/sec, mean slot occupancy,
  shed rate for the continuous-batching loop;
* ``windowed.*`` -- the same trace pushed through a pure simulation of a
  windowed discipline (fresh coalescing window per group, no
  admission control) with the identical :class:`~repro.serve.
  ServiceTimeModel`, as the comparison baseline;
* ``throughput_ratio`` -- continuous vs windowed images per *busy* second
  (served images over summed flush time).  At saturation both disciplines
  pin the server, so raw images/sec converges; what continuous batching
  buys is fuller slot groups -- more images per unit of HE work -- and
  that is the ratio the gate holds at >= ``--min-speedup``;
* ``slo.*`` -- boolean invariants: the p99 queue wait of the paying
  classes (priority 0 and 1) stays under the admission SLO even through
  the burst (the batch class is best-effort: it absorbs the backlog and
  is bounded only via shedding), and the shed rate stays under its cap;
* ``bit_identical.logits`` -- every served request's decrypted logits
  match the plaintext integer reference for its image.

Because arrivals, service times and the admission policy are all
deterministic given ``--seed``, the emitted report is bit-reproducible:
running twice with the same flags yields the same JSON (up to the file
path).  Emits ``BENCH_slo.json``; exits nonzero if an invariant fails or
``throughput_ratio`` falls below ``--min-speedup``.

Run ``--smoke`` for the CI-sized configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.client import AttestedClient
from repro.core import (
    EdgeServer,
    PipelineSpec,
    PlaintextPipeline,
    train_paper_models,
)
from repro.serve import (
    LoopConfig,
    ServiceTimeModel,
    ServingLoop,
    bursty_trace,
    merge,
    poisson_trace,
)
from repro.sgx import AttestationVerificationService


def simulate_windowed(trace, service_model, capacity, window_s):
    """Pure-virtual replay of a fresh-window-per-group coalescing discipline.

    Groups form FIFO: a group opens at its first arrival and closes when it
    fills to ``capacity`` images or an arrival lands after its coalescing
    window expired (a fresh window per group -- exactly the semantics the
    continuous loop removes).  A closed group starts as soon as the server
    frees up; there is no admission control, so nothing is shed and the
    backlog is unbounded.  Same :class:`~repro.serve.ServiceTimeModel`
    currency as the loop, so the two timelines are directly comparable.
    """
    groups = []  # (ready_at_s, [(t_s, images), ...])
    current: list[tuple[float, int]] = []
    count = 0
    open_t = 0.0
    for a in trace:
        if current and (a.t_s >= open_t + window_s or count + a.images > capacity):
            groups.append((min(open_t + window_s, a.t_s), current))
            current, count = [], 0
        if not current:
            open_t = a.t_s
        current.append((a.t_s, a.images))
        count += a.images
        if count >= capacity:
            groups.append((a.t_s, current))
            current, count = [], 0
    if current:
        groups.append((open_t + window_s, current))

    free_at = 0.0
    waits: list[float] = []
    occupancies: list[float] = []
    total_images = 0
    last_done = 0.0
    busy_s = 0.0
    for ready_at, members in groups:
        images = sum(m[1] for m in members)
        start = max(ready_at, free_at)
        service_s = service_model.flush_s(images)
        done = start + service_s
        free_at = done
        last_done = done
        total_images += images
        busy_s += service_s
        occupancies.append(images / capacity)
        waits.extend(start - t for t, _ in members)
    makespan = last_done - min(t for t, _ in groups[0][1]) if groups else 0.0
    return {
        "flushes": len(groups),
        "served_images": total_images,
        "makespan_s": makespan,
        "busy_s": busy_s,
        "images_per_s": total_images / makespan if makespan > 0 else 0.0,
        "images_per_busy_s": total_images / busy_s if busy_s > 0 else 0.0,
        "occupancy_mean": float(np.mean(occupancies)) if occupancies else 0.0,
        "p50_queue_wait_s": float(np.percentile(waits, 50)) if waits else 0.0,
        "p99_queue_wait_s": float(np.percentile(waits, 99)) if waits else 0.0,
        "max_queue_wait_s": max(waits, default=0.0),
    }


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized model and trace"
    )
    parser.add_argument("--seed", type=int, default=42, help="trace seed")
    parser.add_argument("--out", default="BENCH_slo.json", help="JSON results path")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="fail below this continuous-vs-windowed throughput ratio",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        train_kwargs = dict(
            train_size=300, test_size=60, epochs=2, image_size=10, channels=2,
            kernel_size=3,
        )
        poly_degree = 256
        max_batch = 8
        steady_rps, steady_s = 350.0, 0.2
        burst_s, burst_period_s = 0.2, 0.1
        admit_wait_slo_s = 0.030
        users = 1000
        image_pool = 6
    else:
        train_kwargs = dict(train_size=1200, test_size=300, epochs=6)
        poly_degree = 1024
        max_batch = 16
        steady_rps, steady_s = 600.0, 0.5
        burst_s, burst_period_s = 0.5, 0.2
        admit_wait_slo_s = 0.030
        users = 4000
        image_pool = 8

    service_model = ServiceTimeModel()
    config = LoopConfig(
        window_s=0.010,
        max_queue_depth=64,
        admit_wait_slo_s=admit_wait_slo_s,
        service_model=service_model,
    )
    # SLO invariants: the paying classes (priority 0 interactive, 1
    # standard) keep their p99 queue wait under the admission SLO even
    # through the 4x burst -- the batch class (2) is best-effort and is
    # bounded only via shedding -- and the shed rate stays under its cap.
    p99_bound_s = config.admit_wait_slo_s
    shed_rate_cap = 0.35

    print(f"training model ({'smoke' if args.smoke else 'full'} config)...")
    models = train_paper_models(**train_kwargs)
    quantized = models.quantized_sigmoid()
    spec = PipelineSpec(
        scheme="hybrid", poly_degree=poly_degree, batching=True,
        max_batch=max_batch,
    )
    server = EdgeServer.from_spec(spec, seed=13, sizing_model=quantized)
    server.provision_model("digits", quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x42" * 32).establish()

    pool_images = models.dataset.test_images[:image_pool]
    expected = PlaintextPipeline(quantized).infer(pool_images).logits
    pool = [
        client.encrypt("digits", pool_images[i : i + 1]) for i in range(image_pool)
    ]

    steady = poisson_trace(
        args.seed,
        rate_rps=steady_rps,
        duration_s=steady_s,
        users=users,
        image_pool=image_pool,
    )
    burst = bursty_trace(
        args.seed + 1,
        base_rate_rps=steady_rps,
        burst_factor=4.0,
        period_s=burst_period_s,
        duration_s=burst_s,
        users=users,
        image_pool=image_pool,
    ).shifted(steady_s)
    trace = merge(steady, burst)
    print(
        f"trace: {len(trace)} arrivals over {trace.duration_s:.2f}s "
        f"({trace.rate_rps:.0f} rps realized, {trace.users} users, "
        f"4x burst after {steady_s:.2f}s)"
    )

    loop = ServingLoop(server, config)
    print("replaying trace through the continuous-batching loop...")
    for arrival in trace:
        loop.offer(arrival, pool[arrival.image_index])
    loop.run()
    continuous = loop.report()
    paying_waits = [
        t.queue_wait_s for t in loop.tickets if t.served and t.priority <= 1
    ]
    continuous["p99_queue_wait_paying_s"] = (
        float(np.percentile(paying_waits, 99)) if paying_waits else 0.0
    )

    bit_identical = True
    for ticket in loop.tickets:
        if not ticket.served:
            continue
        logits = client.decrypt_logits(ticket.result())
        if not np.array_equal(logits, expected[ticket.image_index : ticket.image_index + 1]):
            bit_identical = False
            break

    windowed = simulate_windowed(
        trace, service_model, loop.capacity, config.window_s
    )
    throughput_ratio = (
        continuous["images_per_busy_s"] / windowed["images_per_busy_s"]
        if windowed["images_per_busy_s"] > 0
        else 0.0
    )
    slo = {
        "p99_bound_s": p99_bound_s,
        "p99_bounded": continuous["p99_queue_wait_paying_s"] <= p99_bound_s,
        "shed_rate_cap": shed_rate_cap,
        "shed_rate_bounded": continuous["shed_rate"] <= shed_rate_cap,
        "all_tickets_resolved": all(t.done() for t in loop.tickets),
    }
    report = {
        "config": {
            "mode": "smoke" if args.smoke else "full",
            "seed": args.seed,
            "poly_degree": server.params.poly_degree,
            "max_batch": loop.capacity,
            "steady_rps": steady_rps,
            "burst_factor": 4.0,
            "arrivals": len(trace),
            "users": trace.users,
            "admit_wait_slo_s": config.admit_wait_slo_s,
            "window_s": config.window_s,
            "service_base_s": service_model.base_s,
            "service_per_image_s": service_model.per_image_s,
            "min_speedup": args.min_speedup,
        },
        "continuous": continuous,
        "windowed": windowed,
        "throughput_ratio": throughput_ratio,
        "slo": slo,
        "bit_identical": {"logits": bit_identical},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)

    print(
        f"continuous: {continuous['images_per_s']:.0f} images/s "
        f"({continuous['images_per_busy_s']:.0f}/busy s), "
        f"occupancy {continuous['occupancy_mean']:.2f}, "
        f"p99 wait {continuous['p99_queue_wait_s'] * 1e3:.1f} ms "
        f"(paying {continuous['p99_queue_wait_paying_s'] * 1e3:.1f} ms), "
        f"shed rate {continuous['shed_rate']:.2%}"
    )
    print(
        f"windowed:   {windowed['images_per_s']:.0f} images/s "
        f"({windowed['images_per_busy_s']:.0f}/busy s), "
        f"occupancy {windowed['occupancy_mean']:.2f}, "
        f"p99 wait {windowed['p99_queue_wait_s'] * 1e3:.1f} ms (unshed)"
    )
    print(
        f"throughput ratio (per busy second): {throughput_ratio:.2f}x   "
        f"bit-identical logits: {bit_identical}"
    )
    print(f"wrote {args.out}")

    failures = []
    if not bit_identical:
        failures.append("served logits diverge from the plaintext reference")
    if not slo["all_tickets_resolved"]:
        failures.append("some tickets never resolved")
    if not slo["p99_bounded"]:
        failures.append(
            f"paying-class p99 queue wait "
            f"{continuous['p99_queue_wait_paying_s']:.4f}s exceeds the "
            f"admission SLO {p99_bound_s:.4f}s"
        )
    if not slo["shed_rate_bounded"]:
        failures.append(
            f"shed rate {continuous['shed_rate']:.2%} exceeds the cap "
            f"{shed_rate_cap:.0%}"
        )
    if throughput_ratio < args.min_speedup:
        failures.append(
            f"throughput ratio {throughput_ratio:.2f}x below required "
            f"{args.min_speedup}x"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(run())
