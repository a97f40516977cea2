"""``python -m repro`` -- a self-contained demonstration run.

Trains the (dimensionally reduced) paper CNN, deploys it behind the hybrid
HE+SGX pipeline, runs one encrypted batch and prints the stage breakdown --
the same flow as ``examples/quickstart.py``, reachable without knowing the
repository layout.

Options:
    python -m repro                    # quick demo (reduced dimensions)
    python -m repro --paper            # the paper's 28x28 / 6-kernel dimensions
    python -m repro --smoke            # minimal dimensions/training (CI)
    python -m repro --trace-json PATH  # export the run's trace as JSON
                                       # (PATH of "-" writes to stdout)
    python -m repro --metrics          # run a short serving + fault-recovery
                                       # segment and print the process-wide
                                       # metrics in Prometheus exposition
    python -m repro --metrics-json PATH  # same, dumping the MetricsSnapshot
                                         # as JSON ("-" writes to stdout)
    python -m repro --serve-demo       # replay a seeded Poisson + 4x-burst
                                       # trace through the event-driven
                                       # continuous-batching serving loop and
                                       # print its SLO report
    python -m repro --serve-demo --fleet 2
                                       # same, on a 2-replica enclave fleet
                                       # (sealed-key migration + routing)
    python -m repro --flight-dump PATH # arm the flight recorder for the run
                                       # and write its ordered event log as
                                       # JSON ("-" writes to stdout); composes
                                       # with every mode above
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    size = parser.add_mutually_exclusive_group()
    size.add_argument("--paper", action="store_true")
    size.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-json", metavar="PATH")
    parser.add_argument("--metrics", action="store_true")
    parser.add_argument("--metrics-json", metavar="PATH")
    parser.add_argument("--serve-demo", action="store_true")
    parser.add_argument("--fleet", type=_positive_int, default=1, metavar="N")
    parser.add_argument("--flight-dump", metavar="PATH")
    return parser.parse_args(argv)


def _serving_degree(side: int) -> int:
    """Ring degree of the demos' edge servers: 256, or the smallest power
    of two a served ``side x side`` image (one per polynomial) fits."""
    return max(256, 1 << (side * side - 1).bit_length())


def _emit(text: str, path: str, what: str) -> None:
    """Write ``text`` to ``path`` (``-`` is stdout)."""
    if path == "-":
        print(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(f"{what} written to {path}")


def _metrics_demo(models, quantized) -> None:
    """Exercise the serving scheduler under a benign armed fault plan.

    Populates the serve, fault/recovery, SGX and HE metric families in one
    short segment: a batching edge server flushes two packed batches while
    the plan crashes one ``activation_pool`` ECALL (recovered by the
    supervisor) and triggers one EPC eviction storm (results unchanged,
    paging costs accrue).
    """
    from repro import faults
    from repro.client import AttestedClient
    from repro.core import EdgeServer, PipelineSpec
    from repro.errors import EnclaveCrashed
    from repro.sgx import AttestationVerificationService

    side = models.dataset.test_images.shape[-1]
    spec = PipelineSpec(scheme="hybrid", poly_degree=_serving_degree(side), batching=True)
    plan = faults.FaultPlan(
        seed=5,
        rules=[
            faults.FaultRule(
                site="sgx.ecall", name="activation_pool*", error=EnclaveCrashed,
                max_fires=1,
            ),
            faults.FaultRule(site="sgx.epc.touch", action="evict_all", after=3,
                             max_fires=1),
        ],
    )
    server = EdgeServer.from_spec(spec, seed=13, sizing_model=quantized)
    server.provision_model("digits", quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x42" * 32).establish()
    images = models.dataset.test_images
    with faults.armed(plan):
        for round_start in (0, 2):
            for i in range(round_start, round_start + 2):
                server.scheduler.submit(
                    "digits", client.encrypt("digits", images[i : i + 1])
                )
            server.scheduler.drain("digits")
    print(f"serving segment: 4 requests in 2 packed flushes, "
          f"{plan.fires()} fault(s) fired, "
          f"{server.enclave.restarts} enclave restart(s)")


def _serve_demo(
    training: dict, dims: dict, fleet: int, trace_json: str | None = None
) -> int:
    """Replay a seeded open-loop trace through the serving loop.

    A steady Poisson phase followed by a 4x on/off burst, continuous
    batching on a CRT-batching edge server (optionally a multi-replica
    fleet); prints the deterministic SLO report (virtual-timeline waits,
    occupancy, shed rate) and verifies a served request's logits against
    the plaintext reference.  Built the declarative way: a
    :class:`~repro.core.PipelineSpec` describes the deployment and the
    :class:`~repro.client.AttestedClient` SDK establishes the session.
    """
    from repro.client import AttestedClient
    from repro.core import EdgeServer, PipelineSpec, PlaintextPipeline, train_paper_models
    from repro.serve import (
        LoopConfig,
        ServingLoop,
        bursty_trace,
        merge,
        poisson_trace,
    )
    from repro.sgx import AttestationVerificationService

    print("repro: serving-loop demo (continuous batching under open-loop traffic)")
    print(f"dimensions: {dims}   fleet: {fleet} replica(s)\n")
    models = train_paper_models(**training, **dims)
    quantized = models.quantized_sigmoid()
    spec = PipelineSpec(
        scheme="hybrid", poly_degree=_serving_degree(dims["image_size"]),
        batching=True, fleet_size=fleet, max_batch=8,
    )
    server = EdgeServer.from_spec(spec, seed=13, sizing_model=quantized)
    server.provision_model("digits", quantized)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    client = AttestedClient(server, verifier, b"\x42" * 32).establish()
    print(f"client session: {client.state.value} "
          f"(pinned key {client.pinned_fingerprint[:16]}...)")

    image_pool = 4
    pool_images = models.dataset.test_images[:image_pool]
    expected = PlaintextPipeline(quantized).infer(pool_images).logits
    pool = [
        client.encrypt("digits", pool_images[i : i + 1]) for i in range(image_pool)
    ]
    steady = poisson_trace(
        42, rate_rps=300.0, duration_s=0.15, users=1000, image_pool=image_pool
    )
    burst = bursty_trace(
        43, base_rate_rps=300.0, burst_factor=4.0, period_s=0.08,
        duration_s=0.15, users=1000, image_pool=image_pool,
    ).shifted(0.15)
    trace = merge(steady, burst)
    print(
        f"trace: {len(trace)} arrivals / {trace.users} users over "
        f"{trace.duration_s:.2f}s (4x burst in the second half)"
    )

    loop = ServingLoop(server, LoopConfig(admit_wait_slo_s=0.05))
    for arrival in trace:
        loop.offer(arrival, pool[arrival.image_index])
    loop.run()
    report = loop.report()
    print(
        f"served {report['served']}/{report['arrivals']} in "
        f"{report['flushes']} flushes: "
        f"{report['images_per_s']:.0f} images/s, "
        f"occupancy {report['occupancy_mean']:.2f}, "
        f"p50/p99 queue wait "
        f"{report['p50_queue_wait_s'] * 1e3:.1f}/"
        f"{report['p99_queue_wait_s'] * 1e3:.1f} ms, "
        f"shed rate {report['shed_rate']:.2%}"
    )
    served = next(t for t in loop.tickets if t.served)
    exact = bool(
        np.array_equal(
            client.decrypt_logits(served.result()),
            expected[served.image_index : served.image_index + 1],
        )
    )
    resolved = all(t.done() for t in loop.tickets)
    print(f"all tickets resolved: {resolved}   "
          f"served logits == plaintext: {exact}")
    if trace_json is not None:
        import json

        from repro.obs import trace_to_dict

        traces = server.platform.tracer.traces
        _emit(
            json.dumps([trace_to_dict(t) for t in traces], indent=2),
            trace_json,
            f"{len(traces)} serving trace(s)",
        )
    return 0 if resolved and exact else 1


def main(argv: list[str]) -> int:
    opts = _parse(argv)  # argparse exits 0 after --help, 2 on a flag error
    for flag in ("trace_json", "metrics_json", "flight_dump"):
        path = getattr(opts, flag)
        if path is not None and path != "-":
            # Fail before the training run, not after it.
            try:
                with open(path, "a", encoding="utf-8"):
                    pass
            except OSError as exc:
                print(f"error: cannot write --{flag.replace('_', '-')} path {path}: {exc}")
                return 2

    if opts.flight_dump is None:
        return _run(opts)
    from repro.obs import recorder as flight

    flight.enable(dump_on_error=True)
    try:
        return _run(opts)
    finally:
        _emit(flight.recorder().dump_json(), opts.flight_dump, "flight recorder dump")
        flight.disable()


def _run(opts: argparse.Namespace) -> int:
    from repro.bench import format_trace
    from repro.core import (
        HybridPipeline,
        PlaintextPipeline,
        parameters_for_pipeline,
        train_paper_models,
    )
    from repro.obs import reconcile, trace_to_json

    if opts.paper:
        dims = dict(image_size=28, channels=6, kernel_size=5)
        training = dict(train_size=600, test_size=150, epochs=6)
    elif opts.smoke:
        dims = dict(image_size=10, channels=2, kernel_size=3)
        training = dict(train_size=200, test_size=40, epochs=2)
    else:
        dims = dict(image_size=12, channels=2, kernel_size=3)
        training = dict(train_size=600, test_size=150, epochs=6)
    if opts.serve_demo:
        return _serve_demo(training, dims, opts.fleet, trace_json=opts.trace_json)
    print("repro: Privacy-Preserving NN Inference via HE + SGX (ICDCS 2021)")
    print(f"dimensions: {dims}\n")
    models = train_paper_models(**training, **dims)
    quantized = models.quantized_sigmoid()
    params = parameters_for_pipeline(quantized, poly_degree=1024)
    print(f"parameters: {params.describe()}")

    pipeline = HybridPipeline(quantized, params, seed=7)
    images = models.dataset.test_images[:4]
    result = pipeline.infer(images)
    print(result.describe())
    reconcile(result.trace)
    print()
    print(format_trace(result.trace))

    if opts.trace_json is not None:
        _emit(trace_to_json(result.trace), opts.trace_json, "\ntrace")

    plain = PlaintextPipeline(quantized).infer(images)
    exact = np.array_equal(result.logits, plain.logits)
    print(f"\nencrypted == plaintext logits: {exact}")
    print(f"predictions: {result.predictions.tolist()} "
          f"(labels: {models.dataset.test_labels[:4].tolist()})")

    if opts.metrics or opts.metrics_json is not None:
        from repro.obs import metrics

        print()
        _metrics_demo(models, quantized)
        if opts.metrics:
            print("\n== metrics (Prometheus exposition) ==")
            print(metrics.registry().render_prometheus())
        if opts.metrics_json is not None:
            _emit(
                metrics.registry().collect().to_json(),
                opts.metrics_json,
                "metrics snapshot",
            )
    return 0 if exact else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
