#!/usr/bin/env python3
"""A complete edge deployment: sealed models, many users, a replica fleet.

Puts the whole reproduction together the way an integrator would:

1. the operator describes the deployment declaratively -- a
   :class:`~repro.core.PipelineSpec` (scheme, parameters, fleet size,
   queue bounds) builds the :class:`~repro.core.EdgeServer`, whose two
   enclave replicas share one key pair via sealed-key migration -- then
   seals the trained model to untrusted disk (surviving enclave restarts);
2. several users enroll through the client SDK
   (:class:`~repro.client.AttestedClient`): each session walks
   CONNECT -> VERIFY_QUOTE -> SESSION_PINNED -> READY and pins the key
   fingerprint the enclave delivered;
3. requests are served one-user-at-a-time through the EdgeServer facade
   (a frozen :class:`~repro.serve.InferenceRequest` per call), then
   *concurrently* through the request scheduler, which coalesces the
   users' requests into one packed pipeline pass (paper Section VIII:
   each request is one image in one polynomial, several of which the host
   stacks per ciphertext) -- legal because the fleet is the key authority,
   so every enrolled user shares its key pair;
4. a replica is lost mid-service: the fleet retires it, the client
   reconnects against its pinned fingerprint, and the survivor's logits
   are bit-identical.

Exits nonzero if the failed-over logits or the SIMD pipeline's logits are
not bit-identical to their references.

Run:
    python examples/multi_user_service.py
"""

from __future__ import annotations

import numpy as np

from repro.client import AttestedClient
from repro.core import (
    EdgeServer,
    PipelineSpec,
    PlaintextPipeline,
    build_pipeline,
    train_paper_models,
)
from repro.obs import render_timeline, resolve_trace_ids
from repro.serve import InferenceRequest
from repro.sgx import AttestationVerificationService


def main() -> None:
    print("== Operator: train, quantize, provision, seal ==")
    models = train_paper_models(train_size=600, test_size=150, epochs=5,
                                image_size=12, channels=2, kernel_size=3)
    quantized = models.quantized_sigmoid()
    spec = PipelineSpec(scheme="hybrid", poly_degree=1024, batching=True,
                        fleet_size=2)
    server = EdgeServer.from_spec(spec, seed=21, sizing_model=quantized)
    _, side, _ = quantized.input_shape
    print(f"   {server.params.describe()} (one {side}x{side} image per "
          f"request ciphertext, {server.params.poly_degree // side**2} per "
          "flush ciphertext)")
    server.provision_model("digits", quantized)
    sealed = server.seal_model("digits")
    desc = server.descriptor()
    print(f"   fleet: replicas {desc['replicas']} share key generation "
          f"{desc['key_generation']} (authority: replica {desc['authority']})")
    print(f"   model sealed for untrusted storage: {sealed.byte_size()} bytes")

    print("\n== Simulated restart: a fresh enclave restores the sealed model ==")
    restarted = EdgeServer(server.params, platform=server.platform, seed=22)
    restarted.restore_model(sealed)
    print(f"   restored models: {restarted.models()}")

    print("\n== Users enroll through the client SDK ==")
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    clients = [
        AttestedClient(server, verifier, bytes([i]) * 32).establish()
        for i in range(1, 4)
    ]
    for i, client in enumerate(clients):
        print(f"   user {i}: {client.state.value}, pinned key "
              f"{client.pinned_fingerprint[:16]}...")

    print("\n== Serving: one user at a time through the facade ==")
    reference = PlaintextPipeline(quantized)
    for i, client in enumerate(clients):
        image = models.dataset.test_images[i : i + 1]
        label = models.dataset.test_labels[i]
        result = server.infer(client.request("digits", image))
        prediction = client.decrypt(result)[0]
        expected = reference.infer(image).predictions[0]
        print(f"   user {i}: label={label} prediction={prediction} "
              f"on replica {result.replica} "
              f"(matches plaintext: {prediction == expected})")

    print("\n== Throughput mode: concurrent requests, one packed flush ==")
    clock = server.platform.clock
    images = models.dataset.test_images[: len(clients)]
    start = clock.now_s
    responses = [
        server.scheduler.submit("digits", client.encrypt("digits", images[i : i + 1]))
        for i, client in enumerate(clients)
    ]
    served = server.scheduler.drain()
    packed_s = clock.now_s - start
    stats = server.scheduler.stats
    print(f"   {served} requests served in {stats.flushes} flush "
          f"({packed_s:.2f}s simulated, {packed_s / served:.2f}s per request)")
    plain = reference.infer(images)
    for i, (client, response) in enumerate(zip(clients, responses)):
        result = response.result()
        prediction = client.decrypt(result)[0]
        print(f"   user {i}: prediction={prediction} "
              f"(shared a batch of {result.packed_batch}, "
              f"matches plaintext: {prediction == plain.predictions[i]})")
    print(f"   packing capacity: {server.scheduler.capacity} images per flush")

    print("\n== Replica loss: failover keeps sessions and logits intact ==")
    victim = clients[0]
    image = models.dataset.test_images[:1]
    before = victim.decrypt_logits(victim.infer("digits", image))
    authority = server.fleet.authority_id
    server.fleet.kill_replica(authority)
    server.fleet.retire(authority, "host crash")
    victim.reconnect()
    after = victim.infer("digits", image)
    survived = np.array_equal(victim.decrypt_logits(after), before)
    print(f"   replica {authority} lost; client reconnected "
          f"({victim.state.value}, pin unchanged)")
    print(f"   survivor replica {after.replica} logits bit-identical: {survived}")
    if not survived:
        raise SystemExit("BUG: failover must keep the logits bit-identical")

    print("\n== Telemetry: the failed-over request's trace timeline ==")
    # The client SDK injected a deterministic TraceContext into the request;
    # find the pipeline trace carrying it and print the per-span timeline.
    trace_id = after.context.trace_id
    failover_trace = next(
        t
        for t in reversed(server.platform.tracer.traces)
        if any(trace_id in ids for _, ids in resolve_trace_ids(t))
    )
    print(f"   request trace id: {trace_id}")
    print(render_timeline(failover_trace))

    print("\n== Same engine, library-style: the SIMD pipeline via a spec ==")
    simd_spec = PipelineSpec(scheme="simd", params=server.params)
    simd = build_pipeline(simd_spec, quantized, seed=23)
    batch = models.dataset.test_images[:8]
    packed = simd.infer(batch)
    plain8 = reference.infer(batch)
    print(f"   8 images: {packed.total_elapsed_s:.2f}s simulated "
          f"({packed.total_elapsed_s / 8:.2f}s per image)")
    exact = np.array_equal(packed.logits, plain8.logits)
    print(f"   bit-exact vs plaintext: {exact}")
    if not exact:
        raise SystemExit("BUG: the SIMD pipeline must be bit-exact")


if __name__ == "__main__":
    main()
