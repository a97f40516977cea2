"""The reference formulas: the oracle every fused kernel is held to.

The library computes with one kernel set -- the prime-stacked GEMM NTT,
conditional-subtract adds, multiply-shift reductions, the int64 RNS
ciphertext multiply and relinearize digits, the mixed-radix decrypt.  This
module keeps the original formulas those kernels rewrote, each the simplest
statement of its arithmetic, and it is the only place the package computes
on Python-int (object-dtype) arrays:

* per-prime :class:`~repro.he.ntt.NttPlan` butterflies (a bounded ``(..., 1,
  n)`` row first becomes residues through :meth:`Ring.from_signed_small`);
* ``%``-reduced ``add``, ``sub``, products and small-coefficient lifts, and a
  ``reduce_sum`` that folds ``add``;
* the Python-int bridge: the CRT lift (:meth:`Ring.to_bigint`) and its
  inverse (:meth:`Ring.from_bigint`), the exact negacyclic
  convolution (:func:`negacyclic_convolve_exact`) and FV's rounding
  (:meth:`Ring.scale_and_round`);
* on it, the tensor product and its rescale, the relinearization digits as
  shifts of the lift of ``c2``, and the decrypt's rounding and noise
  measurement (:meth:`Context.round_to_plain`, :meth:`Context.noise_max`);
  the probe decrypt rounds the whole plaintext and reads its probes
  (:meth:`Context.decrypt_at`).

It is a value, not a mode: build ``oracle.Context(params)`` and hand it to
an :class:`~repro.he.evaluator.Evaluator`, :class:`~repro.he.decryptor.
Decryptor`, encryptor or pipeline wherever a :class:`~repro.he.context.
Context` goes.  Ciphertexts move between the two contexts unchanged
(:meth:`~repro.he.context.Context.check_same` compares parameters only), so a
test can run any step on either side and compare bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.he import context as _context
from repro.he import modmath
from repro.he.ntt import NttPlan
from repro.he.polyring import PolyContext


def _round_half_away(scaled: np.ndarray, denom: int) -> np.ndarray:
    """``round(scaled / denom)`` of Python ints: nearest, halves away from 0."""
    half = denom // 2
    return np.where(scaled >= 0, (scaled + half) // denom, -((-scaled + half) // denom))


def _crt_lift(residues, primes: Sequence[int]) -> np.ndarray:
    """The ``[0, prod primes)`` Python ints with ``residues`` ``(..., m,
    n)``: ``sum_i r_i w_i`` with ``w_i = (P / p_i) [(P / p_i)^-1]_{p_i}``."""
    modulus = modmath.product(primes)
    lifted = np.zeros(residues.shape[:-2] + residues.shape[-1:], dtype=object)
    for i, p in enumerate(primes):
        rest = modulus // p
        lifted = lifted + residues[..., i, :].astype(object) * (rest * modmath.invert_mod(rest, p))
    return lifted % modulus


def _centered(values: np.ndarray, modulus: int) -> np.ndarray:
    """``[0, modulus)`` Python ints mapped into ``(-modulus/2, modulus/2]``."""
    return np.where(values > modulus // 2, values - modulus, values)


def negacyclic_convolve_exact(a: np.ndarray, b: np.ndarray, n: int, bound: int) -> np.ndarray:
    """Exact integer negacyclic convolution of big-integer polynomials.

    The FV tensor product's coefficients (up to ``n (q/2)^2``) overflow
    int64, so the product of the object arrays ``a``, ``b`` (``(..., n)``
    Python ints, every ``abs`` below ``bound``) is assembled by CRT over
    enough word-size NTT primes to cover the worst-case coefficient, and
    returned as signed Python ints.
    """
    plans = _aux_plans(n, 2 * n * bound * bound)
    primes = [plan.prime for plan in plans]
    residues = np.stack(
        [
            plan.multiply((a % plan.prime).astype(np.int64), (b % plan.prime).astype(np.int64))
            for plan in plans
        ],
        axis=-2,
    )
    return _centered(_crt_lift(residues, primes), modmath.product(primes))


_AUX_PLAN_CACHE: dict[tuple[int, int], list[NttPlan]] = {}


def _aux_plans(n: int, max_coeff: int) -> list[NttPlan]:
    """NTT plans whose prime product exceeds ``2 * max_coeff``."""
    count = (max_coeff.bit_length() + 1) // 29 + 1
    key = (n, count)
    if key not in _AUX_PLAN_CACHE:
        _AUX_PLAN_CACHE[key] = [NttPlan(n, p) for p in modmath.ntt_primes(30, n, count)]
    return _AUX_PLAN_CACHE[key]


class Ring(PolyContext):
    """:class:`~repro.he.polyring.PolyContext` with the reference formulas."""

    def __init__(self, n: int, primes: Sequence[int]) -> None:
        super().__init__(n, primes)
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

    # ------------------------------------------------------------------
    # the Python-int bridge
    # ------------------------------------------------------------------
    def from_bigint(self, coeffs: np.ndarray) -> np.ndarray:
        """RNS residues ``(..., k, m)`` of Python-int coefficients ``(...,
        m)``: the inverse of :meth:`to_bigint`."""
        return np.stack([(coeffs % p).astype(np.int64) for p in self._prime_list], axis=-2)

    def to_bigint(self, a: np.ndarray) -> np.ndarray:
        """CRT-lift residues ``(..., k, m)`` to Python ints ``(..., m)`` in
        ``[0, q)``."""
        return _crt_lift(a, self._prime_list)

    def to_bigint_centered(self, a: np.ndarray) -> np.ndarray:
        """Like :meth:`to_bigint` but mapped into ``(-q/2, q/2]``."""
        return _centered(self.to_bigint(a), self.q)

    def convolve_exact(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact signed negacyclic convolution of centered Python-int
        coefficient arrays (the FV tensor product)."""
        return negacyclic_convolve_exact(a, b, self.n, self.q // 2 + 1)

    def scale_and_round(self, coeffs: np.ndarray, numer: int, denom: int) -> np.ndarray:
        """Residues of ``round(coeffs * numer / denom)`` (nearest, halves
        away from zero): FV's ``round(t/q * .)`` on exact integers."""
        return self.from_bigint(_round_half_away(coeffs * numer, denom))


class Context(_context.Context):
    """:class:`~repro.he.context.Context` over :class:`Ring`, with the
    Python-int ciphertext multiply and decrypt."""

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
        d = _centered(_crt_lift(data, primes), modmath.product(primes))
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

    def round_to_plain(self, residues: np.ndarray) -> np.ndarray:
        """``[round(t/q * x)]_t`` of the centered Python-int CRT lift ``x``."""
        t, q = self.params.plain_modulus, self.params.coeff_modulus
        rounded = _round_half_away(self.ring.to_bigint_centered(residues) * t, q)
        return (rounded % t).astype(np.int64)

    def decrypt_at(self, acc: np.ndarray, indices: list[int]) -> np.ndarray:
        """The whole rounded plaintext of ``acc``, read at ``indices``."""
        return self.round_to_plain(self.ring.intt(acc))[..., indices]

    def noise_max(self, residues: np.ndarray) -> int:
        """``max |[t x]_q|`` of the Python-int CRT lift ``x``."""
        t, q = self.params.plain_modulus, self.params.coeff_modulus
        centered = _centered(self.ring.to_bigint(residues) * t % q, q)
        return int(np.abs(centered).max()) if centered.size else 0
