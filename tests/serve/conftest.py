"""Serving-layer fixtures: a batching-capable edge deployment.

These fixtures build their own parameter set (``batching=True``, a prime
plaintext modulus) instead of reusing the core fixtures' power-of-two
modulus; the flush serves either.  Server and session are
function-scoped: scheduler tests mutate queue state and the simulated
clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient
from repro.core import EdgeServer, parameters_for_pipeline, train_paper_models
from repro.he import (
    Context,
    KeyGenerator,
    ScalarEncoder,
    SymmetricEncryptor,
    small_parameter_options,
)
from repro.he.batching import write_image
from repro.sgx import AttestationVerificationService


@pytest.fixture(scope="session")
def models():
    return train_paper_models(
        train_size=300, test_size=60, epochs=4, image_size=10, channels=2, kernel_size=3
    )


@pytest.fixture(scope="session")
def q_sigmoid(models):
    return models.quantized_sigmoid()


@pytest.fixture(scope="session")
def batching_params(q_sigmoid):
    return parameters_for_pipeline(q_sigmoid, 256, batching=True)


@pytest.fixture()
def server(batching_params, q_sigmoid):
    srv = EdgeServer(batching_params, seed=13)
    srv.provision_model("digits", q_sigmoid)
    return srv


@pytest.fixture()
def verifier_for():
    def make(srv):
        service = AttestationVerificationService()
        service.register_platform(srv.quoting)
        return service

    return make


@pytest.fixture()
def session(server, verifier_for):
    return AttestedClient(server, verifier_for(server), b"\x42" * 32).establish().session


@pytest.fixture()
def session_for(verifier_for):
    """Enroll a user against an ad-hoc server (tests that need their own
    ServeConfig build their own EdgeServer)."""

    def make(srv):
        return AttestedClient(srv, verifier_for(srv), b"\x42" * 32).establish().session

    return make


@pytest.fixture()
def foreign_ct(models):
    """A right-shaped ``(1, C)`` image ciphertext encrypted under a
    parameter set (and key) the serving deployment never saw."""
    context = Context(small_parameter_options()[256])
    rng = np.random.default_rng(5)
    keys = KeyGenerator(context, rng).generate()
    plain = write_image(context, np.zeros(models.dataset.test_images[:1].shape, np.int64))
    return SymmetricEncryptor(context, keys.secret, rng).encrypt(plain)


def per_pixel_ct(session, quantized, images):
    """``images`` in the paper's per-pixel encoding, one scalar ciphertext
    per pixel -- a ``(B, C, H, W)`` batch the serving path does not take."""
    pixels = quantized.quantize_images(images)
    return session.encryptor.encrypt(ScalarEncoder(session.context).encode(pixels))
