"""Linear work on ciphertexts in the domain they arrive in.

``Evaluator.multiply`` returns the coefficient domain, and pool and fc take
its size-3 products there without a transform.  (The pure-HE chain itself
pools and contracts the unscaled products before rescaling, see
``tests/core/test_kernel_equivalence.py``.)  A sum and a product by integers
are the same residues on either side of the (exact, mod p) transform, so
the window sum and fc computed in the coefficient domain must equal, byte
for byte after one transform, the same layer run on the NTT-domain input --
with the same op tallies.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import heops
from repro.he import Context, Decryptor, Evaluator, OperationCounter, ScalarEncoder, oracle
from repro.he.context import Ciphertext

#: 2 images x 8 pooled features, 3 classes.
BATCH, FEATURES, CLASSES = 2, 8, 3


@pytest.fixture(scope="module")
def values():
    rng = np.random.default_rng(4101)
    return rng.integers(-20, 21, size=(BATCH, FEATURES))


@pytest.fixture(scope="module")
def squares(encryptor, encoder, context, values):
    """``(B, D)`` size-3 squares, as ``multiply`` leaves them: coefficient
    domain."""
    ct = encryptor.encrypt(encoder.encode(values))
    squared = Evaluator(context).square(ct)
    assert squared.size == 3 and not squared.is_ntt
    return squared


def _dense(context_type, params, weight, bias):
    context = context_type(params)
    evaluator = Evaluator(context, OperationCounter())
    encoder = ScalarEncoder(context)
    return evaluator, encoder, heops.encode_dense_weights(evaluator, encoder, weight, bias)


def _on(context, ct: Ciphertext) -> Ciphertext:
    return Ciphertext(context, ct.data, ct.is_ntt)


class TestAddMany:
    def test_coefficient_operands_sum_in_the_coefficient_domain(self, context, squares):
        terms = [squares[:, i::4] for i in range(4)]
        coeff = Evaluator(context, OperationCounter())
        ntt = Evaluator(context, OperationCounter())
        summed = coeff.add_many(terms)
        reference = ntt.add_many([term.to_ntt() for term in terms])
        assert not summed.is_ntt and reference.is_ntt
        assert summed.to_ntt().data.tobytes() == reference.data.tobytes()
        assert coeff.counter.counts == ntt.counter.counts == {"ct_add": 3 * BATCH * 2}

    def test_mixed_domains_sum_in_ntt(self, context, squares):
        terms = [squares[:, :4], squares[:, 4:].to_ntt()]
        summed = Evaluator(context).add_many(terms)
        assert summed.is_ntt
        expected = Evaluator(context).add_many([term.to_ntt() for term in terms])
        assert summed.data.tobytes() == expected.data.tobytes()


class TestDenseDomain:
    """``he_dense`` on the size-3 coefficient-domain squares equals its
    NTT-domain run: the fused kernel with the bias folded, with it added as
    a separate pass, and the oracle's per-class loop."""

    @pytest.fixture(scope="class")
    def layer(self):
        rng = np.random.default_rng(4102)
        weight = rng.integers(-5, 6, size=(FEATURES, CLASSES))
        weight[:2] = 0  # two zero input rows for the kernel to skip
        return weight, rng.integers(-9, 10, size=CLASSES)

    @pytest.mark.parametrize(
        "context_type, fold_bias",
        [(Context, True), (Context, False), (oracle.Context, None)],
        ids=["folded", "unfolded", "oracle"],
    )
    def test_coefficient_input_matches_ntt_input(
        self, context_type, fold_bias, params, squares, layer
    ):
        evaluator, encoder, weights = _dense(context_type, params, *layer)
        if fold_bias is None:
            assert not weights.fused  # the oracle's ring defers no sum
        else:
            assert weights.fused and weights.fold_bias
            weights = dataclasses.replace(weights, fold_bias=fold_bias)
        coeff_in = _on(evaluator.context, squares)
        out = heops.he_dense(evaluator, encoder, coeff_in, weights)
        coeff_tally = dict(evaluator.counter.counts)
        evaluator.counter.reset()
        reference = heops.he_dense(evaluator, encoder, coeff_in.to_ntt(), weights)
        assert out.is_ntt == (fold_bias is None) and reference.is_ntt
        assert out.size == 3 and out.batch_shape == (BATCH, CLASSES)
        assert out.to_ntt().data.tobytes() == reference.data.tobytes()
        assert coeff_tally == dict(evaluator.counter.counts)

    def test_relinearized_logits_decrypt(
        self, params, squares, layer, values, keypair, relin_keys
    ):
        """fc then one relinearization per logit reads the integer
        reference."""
        evaluator, encoder, weights = _dense(Context, params, *layer)
        out = heops.he_dense(evaluator, encoder, _on(evaluator.context, squares), weights)
        logits = evaluator.relinearize(out, relin_keys)
        decryptor = Decryptor(evaluator.context, keypair.secret)
        weight, bias = layer
        expected = (values**2) @ weight + bias
        assert np.array_equal(encoder.decode(decryptor.decrypt(logits)), expected)
