"""Chaos-suite fixtures: deterministic fault plans against real pipelines.

Every test here runs with the fault layer *disarmed* on entry and leaves it
disarmed on exit, so chaos tests cannot leak injected state into the rest
of the suite.  Seeds come from
:data:`CHAOS_SEEDS`, overridable with the ``REPRO_CHAOS_SEED`` environment
variable so CI can sweep seeds in separate jobs.
"""

from __future__ import annotations

import os

import pytest

from repro import faults
from repro.client import AttestedClient
from repro.core import (
    CryptonetsPipeline,
    EdgeServer,
    HybridPipeline,
    parameters_for_pipeline,
    train_paper_models,
)
from repro.sgx import AttestationVerificationService

#: The fixed seed sweep CI runs (one chaos-tests job per seed).
CHAOS_SEEDS = (11, 23, 47)


def chaos_seeds() -> tuple[int, ...]:
    env = os.environ.get("REPRO_CHAOS_SEED")
    return (int(env),) if env else CHAOS_SEEDS


@pytest.fixture(autouse=True)
def pristine_fault_state():
    """Disarm the fault layer around every test here."""
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(scope="session")
def models():
    return train_paper_models(
        train_size=300, test_size=60, epochs=4, image_size=10, channels=2, kernel_size=3
    )


@pytest.fixture(scope="session")
def q_sigmoid(models):
    return models.quantized_sigmoid()


@pytest.fixture(scope="session")
def q_square(models):
    return models.quantized_square()


@pytest.fixture(scope="session")
def hybrid_params(q_sigmoid):
    return parameters_for_pipeline(q_sigmoid, 256)


@pytest.fixture(scope="session")
def pure_he_params(q_square):
    return parameters_for_pipeline(q_square, 256)


@pytest.fixture(scope="session")
def batching_params(q_sigmoid):
    return parameters_for_pipeline(q_sigmoid, 256, batching=True)


@pytest.fixture(scope="session")
def test_images(models):
    return models.dataset.test_images[:2]


#: The paper's four schemes, as (fixture-key, constructor-kwargs) pairs.
PIPELINE_KINDS = ("encrypted", "batched", "per_pixel", "fake")


@pytest.fixture(scope="session")
def make_pipeline(q_sigmoid, q_square, hybrid_params, pure_he_params):
    """Factory: a fresh pipeline of the requested scheme, fixed seed."""

    def build(kind: str):
        if kind == "encrypted":
            return CryptonetsPipeline(q_square, pure_he_params, seed=17)
        return HybridPipeline(q_sigmoid, hybrid_params, mode={
            "batched": "batched",
            "per_pixel": "per_pixel",
            "fake": "fake",
        }[kind], seed=17)

    return build


@pytest.fixture(scope="session")
def baseline_logits(make_pipeline, test_images):
    """Fault-free logits per scheme, computed once (always disarmed -- the cache is only filled from inside tests, which
    start pristine and ask for the baseline before arming anything)."""
    cache: dict[str, object] = {}

    def get(kind: str):
        if kind not in cache:
            assert not faults.is_armed(), "baseline must be computed disarmed"
            cache[kind] = make_pipeline(kind).infer(test_images).logits
        return cache[kind]

    return get


@pytest.fixture()
def server(batching_params, q_sigmoid):
    srv = EdgeServer(batching_params, seed=13)
    srv.provision_model("digits", q_sigmoid)
    return srv


@pytest.fixture()
def session(server):
    verifier = AttestationVerificationService()
    verifier.register_platform(server.quoting)
    return AttestedClient(server, verifier, b"\x42" * 32).establish().session
