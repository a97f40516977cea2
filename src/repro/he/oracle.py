"""The reference formulas: the oracle every fused kernel is held to.

The library computes with one kernel set -- the prime-stacked GEMM NTT,
conditional-subtract adds, multiply-shift reductions, the int64 RNS
ciphertext multiply and relinearize digits, the Garner decrypt.  This module
keeps the original formulas those kernels rewrote, each the simplest
statement of its arithmetic:

* per-prime :class:`~repro.he.ntt.NttPlan` butterflies (a bounded ``(..., 1,
  n)`` row first becomes residues through :meth:`Ring.from_signed_small`);
* ``%``-reduced ``add``, ``sub``, products and small-coefficient lifts, and a
  ``reduce_sum`` that folds ``add``;
* the Python-int tensor product, ``scale_and_round`` of its CRT lift, and
  the relinearization digits as shifts of the Python-int lift of ``c2``;
* the object-dtype CRT decrypt (:attr:`Ring.int64_lift` is False).

It is a value, not a mode: build ``oracle.Context(params)`` and hand it to
an :class:`~repro.he.evaluator.Evaluator`, :class:`~repro.he.decryptor.
Decryptor`, encryptor or pipeline wherever a :class:`~repro.he.context.
Context` goes.  Ciphertexts move between the two contexts unchanged
(:meth:`~repro.he.context.Context.check_same` compares parameters only), so a
test can run any step on either side and compare bytes.

One documented divergence: :func:`~repro.he.decryptor.decrypt_scalar_values`
under the oracle decodes the full plaintext and rejects *any* non-constant
coefficient, where the production probe decrypt checks coefficients ``1``
and ``n/2`` only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.he import context as _context
from repro.he import modmath
from repro.he.polyring import PolyContext


class Ring(PolyContext):
    """:class:`~repro.he.polyring.PolyContext` with the reference formulas."""

    def __init__(self, n: int, primes: Sequence[int]) -> None:
        super().__init__(n, primes)
        # Decrypt lifts and rounds in Python ints.
        self.int64_lift = False
        # Every add reduces: no sum is deferred, so no weight operand fits
        # the fused contraction and conv / fc run the per-tap loop.
        self.max_sum_terms = 0

    def from_signed_small(self, coeffs: np.ndarray) -> np.ndarray:
        coeffs = np.asarray(coeffs, dtype=np.int64)
        return coeffs[..., None, :] % self._p_col

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self._p_col

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a - b) % self._p_col

    def _reduce_product(self, prod: np.ndarray) -> np.ndarray:
        return prod % self._p_col

    def reduce_sum(self, a: np.ndarray, axis: int) -> np.ndarray:
        """:meth:`add` folded along one batch axis."""
        axis = axis % a.ndim
        if axis >= a.ndim - 2:
            raise ParameterError(
                "reduce_sum operates on batch axes; the trailing two axes "
                "are the RNS residue and coefficient dimensions"
            )
        terms = np.moveaxis(a, axis, 0)
        acc = terms[0]
        for term in terms[1:]:
            acc = self.add(acc, term)
        return acc

    def ntt(self, a: np.ndarray) -> np.ndarray:
        if a.shape[-2] == 1:  # a bounded row: the same integers under every prime
            a = self.from_signed_small(a[..., 0, :])
        out = np.empty_like(a)
        for i, plan in enumerate(self.plans):
            out[..., i, :] = plan.forward(a[..., i, :])
        return out

    def intt(self, a: np.ndarray) -> np.ndarray:
        out = np.empty_like(a)
        for i, plan in enumerate(self.plans):
            out[..., i, :] = plan.inverse(a[..., i, :])
        return out


class Context(_context.Context):
    """:class:`~repro.he.context.Context` over :class:`Ring`, with the
    Python-int ciphertext multiply."""

    ring_type = Ring

    def tensor_product(
        self, ct0: _context.Ciphertext, ct1: _context.Ciphertext, batch: tuple[int, ...]
    ) -> _context.TensorProduct:
        """Python-int tensor product, reduced modulo every product prime in
        the coefficient domain."""
        ring = self.ring
        a = ct0.to_coeff().data
        b = a if ct1 is ct0 else ct1.to_coeff().data
        a0 = ring.to_bigint_centered(a[..., 0, :, :])
        a1 = ring.to_bigint_centered(a[..., 1, :, :])
        b0 = ring.to_bigint_centered(b[..., 0, :, :])
        b1 = ring.to_bigint_centered(b[..., 1, :, :])
        c0 = ring.convolve_exact(a0, b0)
        c1 = ring.convolve_exact(a0, b1) + ring.convolve_exact(a1, b0)
        c2 = ring.convolve_exact(a1, b1)
        d = np.broadcast_to(np.stack([c0, c1, c2], axis=-2), (*batch, 3, ring.n))
        residues = [(d % p).astype(np.int64) for p in self.product_primes]
        return _context.TensorProduct(self, np.stack(residues, axis=-2), is_ntt=False)

    def scale_round(self, product: _context.TensorProduct) -> np.ndarray:
        """``round(t d / q)`` of the centered Python-int CRT lift of ``d``
        over every product prime."""
        ring = self.ring
        data = product.data
        if product.is_ntt:
            k = ring.k
            data = np.concatenate(
                [ring.intt(data[..., :k, :]), self.aux_basis.plan.inverse(data[..., k:, :])],
                axis=-2,
            )
        primes = self.product_primes
        modulus = modmath.product(primes)
        lifted = np.zeros(data.shape[:-2] + data.shape[-1:], dtype=object)
        for i, p in enumerate(primes):
            rest = modulus // p
            lifted = lifted + data[..., i, :].astype(object) * (rest * modmath.invert_mod(rest, p))
        lifted %= modulus
        d = np.where(lifted > modulus // 2, lifted - modulus, lifted)
        params = self.params
        return ring.scale_and_round(d, params.plain_modulus, params.coeff_modulus)

    def relin_digits(self, c2: np.ndarray):
        """Base-``w`` digits as shifts of the Python-int lift of ``c2``."""
        params = self.params
        bits = params.decomposition_bits
        c2_big = self.ring.to_bigint(c2)
        mask = params.decomposition_base - 1
        for i in range(params.decomposition_count):
            yield ((c2_big >> (bits * i)) & mask).astype(np.int64)
