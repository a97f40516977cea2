"""Observability must be a read-only plane: flipping the flight recorder
and trace context on or off cannot perturb a single ciphertext byte or
logit (PR 10 acceptance).

The deployment's entropy (platform secrets, sealing nonces, client
encryption noise) is pinned to deterministic streams so two fresh
servers are byte-for-byte comparable; the only variable left is whether
the telemetry plane is live.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.client import AttestedClient
from repro.core import EdgeServer
from repro.he.serialize import serialize_ciphertext
from repro.obs.recorder import use_recorder
from repro.serve import LoopConfig, ServingLoop
from repro.sgx import AttestationVerificationService


class _FixedStream:
    """Deterministic ``os.urandom`` stand-in: a counter-mode hash stream."""

    def __init__(self) -> None:
        self._block = 0

    def __call__(self, size: int) -> bytes:
        out = b""
        while len(out) < size:
            out += hashlib.sha256(b"pinned-entropy:%d" % self._block).digest()
            self._block += 1
        return out[:size]


def _serve_once(monkeypatch, batching_params, q_sigmoid, image):
    """One full attested serve through the event loop -- the instrumented
    path that admits requests, stamps spans, and fires recorder events."""
    monkeypatch.setattr("os.urandom", _FixedStream())
    srv = EdgeServer(batching_params, seed=13)
    srv.provision_model("digits", q_sigmoid)
    verifier = AttestationVerificationService()
    verifier.register_platform(srv.quoting)
    session = AttestedClient(srv, verifier, b"\x42" * 32).establish().session
    session.encryptor.rng = np.random.default_rng(7)  # pin client HE noise
    ct = session.encrypt("digits", image)
    loop = ServingLoop(srv, LoopConfig(window_s=0.005))
    ticket = loop.submit("digits", ct)
    loop.run()
    result = ticket.result()
    return {
        "input_ct": serialize_ciphertext(ct),
        "logits_ct": serialize_ciphertext(result.logits_ct),
        "logits": session.decrypt_logits(result),
    }


class TestObservabilityIsReadOnly:
    def test_recorder_and_context_do_not_change_bytes(
        self, monkeypatch, batching_params, q_sigmoid, test_images
    ):
        image = test_images[:1]
        baseline = _serve_once(monkeypatch, batching_params, q_sigmoid, image)
        with use_recorder() as rec:
            observed = _serve_once(monkeypatch, batching_params, q_sigmoid, image)
            assert rec.enabled and "serve.admit" in rec.kinds()  # recorder was live
        assert observed["input_ct"] == baseline["input_ct"]
        assert observed["logits_ct"] == baseline["logits_ct"]
        assert observed["logits"].tobytes() == baseline["logits"].tobytes()
        assert np.array_equal(observed["logits"], baseline["logits"])
