"""Property-based tests: FV must be a homomorphism on random circuits.

A random arithmetic circuit (adds, plain-multiplies, negations, one
optional square) is evaluated both over the integers and
homomorphically; the results must agree exactly whenever the integer result
fits the plaintext space -- the defining property everything else in this
repository builds on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import (
    Context,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    ScalarEncoder,
    small_parameter_options,
)

# Shared deployment for all property runs (session-level state is fine:
# every operation is pure with respect to the keys).
_PARAMS = small_parameter_options()[256]
_CONTEXT = Context(_PARAMS)
_RNG = np.random.default_rng(99)
_KEYS = KeyGenerator(_CONTEXT, _RNG).generate()
_RELIN = KeyGenerator(_CONTEXT, _RNG).relin_keys(_KEYS.secret)
_ENCODER = ScalarEncoder(_CONTEXT)
_ENCRYPTOR = Encryptor(_CONTEXT, _KEYS.public, _RNG)
_DECRYPTOR = Decryptor(_CONTEXT, _KEYS.secret)
_EVALUATOR = Evaluator(_CONTEXT)

_LIMIT = _PARAMS.plain_modulus // 2

operations = st.lists(
    st.sampled_from(["add", "sub", "neg", "plain_mul"]),
    min_size=0,
    max_size=6,
)
small = st.integers(min_value=-40, max_value=40)
tiny = st.integers(min_value=-5, max_value=5)


def _apply(op, ct, value, operand):
    """Apply one circuit op homomorphically and over the integers."""
    if op == "add":
        return (
            _EVALUATOR.add(ct, _ENCRYPTOR.encrypt(_ENCODER.encode(operand))),
            value + operand,
        )
    if op == "sub":
        return (
            _EVALUATOR.sub(ct, _ENCRYPTOR.encrypt(_ENCODER.encode(operand))),
            value - operand,
        )
    if op == "neg":
        return _EVALUATOR.negate(ct), -value
    if op == "plain_mul":
        return (
            _EVALUATOR.multiply_plain(ct, _ENCODER.encode(operand)),
            value * operand,
        )
    raise AssertionError(op)


class TestCircuitHomomorphism:
    @settings(max_examples=40, deadline=None)
    @given(start=small, ops=operations, operands=st.lists(tiny, min_size=6, max_size=6))
    def test_linear_circuits(self, start, ops, operands):
        ct = _ENCRYPTOR.encrypt(_ENCODER.encode(start))
        value = start
        for op, operand in zip(ops, operands):
            if op == "plain_mul" and abs(value * operand) > _LIMIT:
                return  # circuit would overflow the plaintext space
            if op in ("add", "sub") and abs(value) + abs(operand) > _LIMIT:
                return
            ct, value = _apply(op, ct, value, operand)
        assert _ENCODER.decode(_DECRYPTOR.decrypt(ct)) == value

    @settings(max_examples=15, deadline=None)
    @given(a=st.integers(min_value=-100, max_value=100), b=tiny, c=tiny)
    def test_affine_then_square(self, a, b, c):
        """(a * b + c)^2 with relinearization, vs integer arithmetic."""
        inner = a * b + c
        if inner * inner > _LIMIT:
            return
        ct = _ENCRYPTOR.encrypt(_ENCODER.encode(a))
        ct = _EVALUATOR.multiply_plain(ct, _ENCODER.encode(b))
        ct = _EVALUATOR.add_plain(ct, _ENCODER.encode(c))
        ct = _EVALUATOR.relinearize(_EVALUATOR.square(ct), _RELIN)
        assert _ENCODER.decode(_DECRYPTOR.decrypt(ct)) == inner * inner

    @settings(max_examples=20, deadline=None)
    @given(values=st.lists(small, min_size=2, max_size=12))
    def test_batched_dot_product(self, values):
        weights = list(range(1, len(values) + 1))
        expected = sum(v * w for v, w in zip(values, weights))
        if abs(expected) > _LIMIT:
            return
        ct = _ENCRYPTOR.encrypt(_ENCODER.encode(np.array(values)))
        products = _EVALUATOR.multiply_plain(
            ct, _EVALUATOR.transform_plain(_ENCODER.encode(np.array(weights)))
        )
        total = _EVALUATOR.sum_batch(products, axis=0)
        assert int(_ENCODER.decode(_DECRYPTOR.decrypt(total))) == expected

    @settings(max_examples=20, deadline=None)
    @given(a=small, b=small)
    def test_add_commutes_with_encryption_order(self, a, b):
        ct_ab = _EVALUATOR.add(
            _ENCRYPTOR.encrypt(_ENCODER.encode(a)), _ENCRYPTOR.encrypt(_ENCODER.encode(b))
        )
        ct_ba = _EVALUATOR.add(
            _ENCRYPTOR.encrypt(_ENCODER.encode(b)), _ENCRYPTOR.encrypt(_ENCODER.encode(a))
        )
        assert _ENCODER.decode(_DECRYPTOR.decrypt(ct_ab)) == _ENCODER.decode(
            _DECRYPTOR.decrypt(ct_ba)
        )

    @settings(max_examples=10, deadline=None)
    @given(v=small)
    def test_refreshed_ciphertext_is_equivalent(self, v):
        """Decrypt/re-encrypt (the enclave's refresh) preserves the value and
        improves (or at least preserves) the noise budget."""
        from repro.he import SymmetricEncryptor

        sym = SymmetricEncryptor(_CONTEXT, _KEYS.secret, _RNG)
        ct = _EVALUATOR.multiply_plain(
            _ENCRYPTOR.encrypt(_ENCODER.encode(v)), _ENCODER.encode(3)
        )
        refreshed = sym.encrypt(_DECRYPTOR.decrypt(ct))
        assert _ENCODER.decode(_DECRYPTOR.decrypt(refreshed)) == int(
            _ENCODER.decode(_DECRYPTOR.decrypt(ct))
        )
        assert _DECRYPTOR.invariant_noise_budget(refreshed) >= (
            _DECRYPTOR.invariant_noise_budget(ct) - 1.0
        )


class TestQuantizedPipelineProperty:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_he_conv_matches_integer_conv(self, seed):
        """Random small conv instances: HE path == integer path, always."""
        from repro.core import encode_conv_weights, he_conv2d

        rng = np.random.default_rng(seed)
        x = rng.integers(-6, 7, size=(1, 1, 5, 5))
        w = rng.integers(-4, 5, size=(2, 1, 2, 2))
        b = rng.integers(-3, 4, size=2)
        from repro.nn.layers import conv2d_forward

        expected = conv2d_forward(x, w, None, 1) + b.reshape(1, 2, 1, 1)
        ct = _ENCRYPTOR.encrypt(_ENCODER.encode(x))
        weights = encode_conv_weights(_EVALUATOR, _ENCODER, w, b, 1)
        out = he_conv2d(_EVALUATOR, _ENCODER, ct, weights)
        assert np.array_equal(_ENCODER.decode(_DECRYPTOR.decrypt(out)), expected)
