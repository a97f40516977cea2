"""Seeded runs of the graph kinds the differential suite pins across commits.

Shared by the equivalence suite and by the one-off script that froze the
parent commit's output (``parent_recording.json``): integer models and
images drawn from fixed seeds (no training, so the recording does not
depend on float training arithmetic), two back-to-back inferences per
kind so the second one's bytes also pin the enclave's RNG position after
the first, and one fingerprint per run set.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.client import AttestedClient
from repro.core import (
    CryptonetsPipeline,
    EdgeServer,
    SimdHybridPipeline,
    parameters_for_pipeline,
)
from repro.he.serialize import serialize_ciphertext
from repro.nn.quantize import QuantizedCNN, QuantizedConvBlock
from repro.serve import InferenceRequest
from repro.sgx import AttestationVerificationService

KINDS = ("simd", "deep", "served", "packed", "cryptonets")

#: Stage-name sequence every run of a kind must emit.
STAGES = {
    "simd": ["encrypt", "pack", "conv", "sgx_activation_pool", "decrypt"],
    "deep": [
        "encrypt", "pack", "conv_0", "sgx_block_0", "conv_1", "sgx_block_1", "decrypt",
    ],
    "served": ["conv", "sgx_activation_pool"],
    "packed": ["pack", "conv", "sgx_activation_pool"],
    "cryptonets": ["encrypt", "conv", "square", "pool", "fc", "relinearize", "decrypt"],
}


def single_block_model() -> QuantizedCNN:
    """8x8x1 -> conv3 (2 filters) -> sigmoid + mean-pool 2 -> 3 classes,
    with one all-zero conv tap and two all-zero FC rows for the layers to skip."""
    rng = np.random.default_rng(2113)
    conv = rng.integers(-4, 5, size=(2, 1, 3, 3))
    conv[:, 0, 0, 0] = 0
    dense = rng.integers(-4, 5, size=(18, 3))
    dense[:2, :] = 0
    block = QuantizedConvBlock(
        weight=conv,
        bias=rng.integers(-3, 4, size=(2,)),
        weight_scale=4.0,
        stride=1,
        activation="sigmoid",
        pool="mean",
        pool_window=2,
        act_scale=15,
    )
    return QuantizedCNN(
        blocks=[block],
        dense_weight=dense,
        dense_bias=rng.integers(-3, 4, size=(3,)),
        dense_weight_scale=4.0,
        input_scale=15,
    )


def square_model() -> QuantizedCNN:
    """8x8x1 -> conv3 (2 filters) -> square + scaled mean-pool 2 -> 3
    classes: the pure-HE chain, with the same planted zeros as
    :func:`single_block_model`."""
    rng = np.random.default_rng(2116)
    conv = rng.integers(-3, 4, size=(2, 1, 3, 3))
    conv[:, 0, 0, 0] = 0
    dense = rng.integers(-3, 4, size=(18, 3))
    dense[:2, :] = 0
    block = QuantizedConvBlock(
        weight=conv,
        bias=rng.integers(-3, 4, size=(2,)),
        weight_scale=3.0,
        stride=1,
        activation="square",
        pool="scaled_mean",
        pool_window=2,
        act_scale=1,
    )
    return QuantizedCNN(
        blocks=[block],
        dense_weight=dense,
        dense_bias=rng.integers(-3, 4, size=(3,)),
        dense_weight_scale=3.0,
        input_scale=7,
    )


def deep_model() -> QuantizedCNN:
    """14x14x1 -> two (conv3, act, pool 2) blocks -> 3 classes; the second
    block uses tanh + max-pool so per-block scales and ops differ."""
    rng = np.random.default_rng(2114)

    def block(in_channels, activation, pool):
        weight = rng.integers(-3, 4, size=(2, in_channels, 3, 3))
        weight[:, 0, 0, 0] = 0
        return QuantizedConvBlock(
            weight=weight,
            bias=rng.integers(-3, 4, size=(2,)),
            weight_scale=4.0,
            stride=1,
            activation=activation,
            pool=pool,
            pool_window=2,
            act_scale=15,
        )

    return QuantizedCNN(
        blocks=[block(1, "sigmoid", "mean"), block(2, "tanh", "max")],
        dense_weight=rng.integers(-4, 5, size=(8, 3)),
        dense_bias=rng.integers(-3, 4, size=(3,)),
        dense_weight_scale=4.0,
        input_scale=15,
    )


def images_for(kind: str) -> np.ndarray:
    side = 14 if kind == "deep" else 8
    return np.random.default_rng(2115).random((5, 1, side, side))


def _digest(*chunks: bytes) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()


def _fingerprint(logits, ciphertexts, counts, rng, stages) -> dict:
    return {
        "logits": _digest(
            *(np.ascontiguousarray(x, dtype=np.int64).tobytes() for x in logits)
        ),
        "ciphertext": _digest(*(bytes(serialize_ciphertext(ct)) for ct in ciphertexts)),
        "op_counts": {op: int(n) for op, n in sorted(counts.items())},
        "rng": _digest(repr(rng.bit_generator.state).encode()),
        "stages": stages,
    }


def _run_pipeline(pipe, images):
    first = pipe.infer(images[:3])
    second = pipe.infer(images[3:])
    return _fingerprint(
        [first.logits, second.logits],
        [first.logits_ct, second.logits_ct],
        pipe.counter.counts,
        pipe.encryptor.rng,
        [s.name for s in second.stages],
    )


def _server(model):
    params = parameters_for_pipeline(model, 256, batching=True)
    server = EdgeServer(params, seed=13)
    server.provision_model("m", model)
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    session = AttestedClient(server, verifier, b"\x42" * 32).establish().session
    session.encryptor.rng = np.random.default_rng(5)  # pin client HE noise
    return server, session


def _run_served(images):
    server, session = _server(single_block_model())
    results = [
        server.infer(InferenceRequest(model="m", ciphertext=session.encrypt("m", part)))
        for part in (images[:3], images[3:])
    ]
    return _fingerprint(
        [session.decrypt_logits(r) for r in results],
        [r.logits_ct for r in results],
        server.counter.counts,
        session.encryptor.rng,
        [s.name for s in results[-1].timing.stages],
    )


def _run_packed(images):
    server, session = _server(single_block_model())
    results = []
    for flush in ((images[:1], images[1:3], images[3:4]), (images[4:5], images[:2])):
        pending = [
            server.scheduler.submit("m", session.encrypt("m", part)) for part in flush
        ]
        server.scheduler.drain("m")
        results.extend(p.result() for p in pending)
    return _fingerprint(
        [session.decrypt_logits(r) for r in results],
        [r.logits_ct for r in results],
        server.counter.counts,
        session.encryptor.rng,
        [s.name for s in results[-1].timing.stages],
    )


def run_kind(kind: str) -> dict:
    """Execute ``kind``; returns the run set's fingerprint."""
    images = images_for(kind)
    if kind == "simd":
        model = single_block_model()
        params = parameters_for_pipeline(model, 256, batching=True)
        return _run_pipeline(SimdHybridPipeline(model, params, seed=7), images)
    if kind == "cryptonets":
        model = square_model()
        params = parameters_for_pipeline(model, 256)
        return _run_pipeline(CryptonetsPipeline(model, params, seed=7), images)
    if kind == "deep":
        model = deep_model()
        params = parameters_for_pipeline(model, 256)
        return _run_pipeline(SimdHybridPipeline(model, params, seed=7), images)
    return _run_served(images) if kind == "served" else _run_packed(images)
