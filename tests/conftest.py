"""Shared fixtures: a small-but-real FV deployment reused across the suite.

The fixtures are session-scoped because key generation is the slowest part
of setup and every test only *reads* the key material.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.he import (
    Context,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    ScalarEncoder,
    SymmetricEncryptor,
    small_parameter_options,
)


@pytest.fixture(scope="session")
def params():
    return small_parameter_options()[256]


@pytest.fixture(scope="session")
def context(params):
    return Context(params)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2021)


@pytest.fixture(scope="session")
def keygen(context, rng):
    return KeyGenerator(context, rng)


@pytest.fixture(scope="session")
def keypair(keygen):
    return keygen.generate()


@pytest.fixture(scope="session")
def relin_keys(keygen, keypair):
    return keygen.relin_keys(keypair.secret)


@pytest.fixture(scope="session")
def encoder(context):
    return ScalarEncoder(context)


@pytest.fixture(scope="session")
def encryptor(context, keypair, rng):
    return Encryptor(context, keypair.public, rng)


@pytest.fixture(scope="session")
def sym_encryptor(context, keypair, rng):
    return SymmetricEncryptor(context, keypair.secret, rng)


@pytest.fixture(scope="session")
def decryptor(context, keypair):
    return Decryptor(context, keypair.secret)


@pytest.fixture()
def evaluator(context):
    return Evaluator(context)
