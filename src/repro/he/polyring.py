"""RNS arithmetic in the ciphertext ring ``R_q = Z_q[x] / (x^n + 1)``.

The coefficient modulus ``q`` is a product of word-size NTT-friendly primes.
A ring element is stored as an int64 numpy array of per-prime residues with
shape ``(..., k, n)`` where ``k = len(primes)``; leading axes batch many
polynomials so whole ciphertext images can be processed in single numpy
calls.  Elements exist in either *coefficient* or *NTT (evaluation)* domain;
the domain is tracked by the caller (see :class:`repro.he.context.Ciphertext`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.he import kernels, modmath
from repro.he.ntt import NttPlan, StackedNttPlan, negacyclic_convolve_exact

#: Elementwise cap on the product chunk of the fused multiply-reduce (16 MiB of
#: int64): small enough that the serving flush's 16 x 288 ciphertext fold never
#: materializes the whole batch product, large enough that the conv/dense tap
#: stacks still run as a handful of numpy calls.
_MUL_SUM_CHUNK_ELEMS = 1 << 21

#: Exclusive numerator bound of :meth:`PolyContext.scale_round_int64`: below
#: it the float64 quotient estimate is provably within one of the true value.
SCALE_ROUND_MAX_NUMER = 1 << 50


class PolyContext:
    """Vectorized RNS polynomial arithmetic for a fixed ``(n, primes)`` pair.

    Args:
        n: polynomial degree, a power of two.
        primes: distinct NTT-friendly primes (each ``≡ 1 mod 2n``, < 2^31)
            whose product is the coefficient modulus ``q``.
    """

    def __init__(self, n: int, primes: Sequence[int]) -> None:
        if len(set(primes)) != len(primes):
            raise ParameterError("coefficient primes must be distinct")
        self.n = n
        self.primes = np.array(sorted(primes), dtype=np.int64)
        self.k = len(primes)
        self.q = modmath.product(primes)
        self.plans = [NttPlan(n, int(p)) for p in self.primes]
        self.stacked = StackedNttPlan(n, self.primes, plans=self.plans)
        self._p_col = self.primes.reshape(self.k, 1)
        self._prime_list = [int(p) for p in self.primes]
        self._p_max = max(self._prime_list)
        # Deferred-reduction overflow bound: a sum of fully reduced residues
        # (each < p_max < 2^31) stays int64-exact for up to this many terms;
        # reduce_sum / pointwise_mul_sum enforce it.
        self.max_sum_terms = ((1 << 63) - 1) // (self._p_max - 1)
        # Per-value scalar residue cache (mul_scalar / from_scalar): weights,
        # Delta and bias constants recur across every inference.
        self._scalar_cache: dict[int, np.ndarray] = {}
        # CRT lift weights: w_i = (q / p_i) * inv(q / p_i, p_i), so that
        # value = sum(r_i * w_i) mod q.
        self._crt_weights = np.array(
            [
                (self.q // int(p)) * modmath.invert_mod(self.q // int(p), int(p))
                for p in self.primes
            ],
            dtype=object,
        )
        # Garner (mixed-radix) lift constants for the int64 CRT fast path:
        # x = r_0 + p_0 * t_1 + p_0 p_1 * t_2 + ...; every intermediate stays
        # below q, so the lift is exact in int64 whenever q < 2^62.
        self.q_fits_int64 = self.q < (1 << 62)
        if self.q_fits_int64:
            prods: list[int] = [1]
            invs: list[int] = [0]
            partial = 1
            for i in range(1, self.k):
                partial *= self._prime_list[i - 1]
                prods.append(partial)
                invs.append(
                    modmath.invert_mod(
                        partial % self._prime_list[i], self._prime_list[i]
                    )
                )
            self._garner_prods = prods
            self._garner_invs = invs

    # ------------------------------------------------------------------
    # construction / sampling
    # ------------------------------------------------------------------
    def zeros(self, *leading: int) -> np.ndarray:
        """A zero element (or batch of them) in RNS form."""
        return np.zeros((*leading, self.k, self.n), dtype=np.int64)

    def from_int_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Reduce integer coefficients (shape ``(..., n)``, possibly signed
        Python bigints) into RNS residues of shape ``(..., k, n)``."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape[-1] != self.n:
            raise ParameterError(f"expected degree {self.n}, got {coeffs.shape[-1]}")
        out = np.empty((*coeffs.shape[:-1], self.k, self.n), dtype=np.int64)
        if coeffs.dtype == object:
            for i, p in enumerate(self.primes):
                out[..., i, :] = (coeffs % int(p)).astype(np.int64)
        else:
            coeffs = coeffs.astype(np.int64)
            for i, p in enumerate(self.primes):
                out[..., i, :] = coeffs % int(p)
        return out

    def scalar_residues(self, value: int) -> np.ndarray:
        """Cached, read-only ``(k, 1)`` residue column of an integer scalar."""
        value = int(value)
        cached = self._scalar_cache.get(value)
        if cached is None:
            if len(self._scalar_cache) > 4096:
                self._scalar_cache.clear()
            cached = np.array(
                [value % p for p in self._prime_list], dtype=np.int64
            ).reshape(self.k, 1)
            cached.flags.writeable = False
            self._scalar_cache[value] = cached
        return cached

    def from_scalar(self, value: int) -> np.ndarray:
        """Constant polynomial ``value`` in RNS form."""
        out = self.zeros()
        out[:, 0] = self.scalar_residues(value)[:, 0]
        return out

    def sample_uniform(self, rng: np.random.Generator, *leading: int) -> np.ndarray:
        """Uniform element of R_q (independent residue per prime)."""
        out = np.empty((*leading, self.k, self.n), dtype=np.int64)
        for i, p in enumerate(self.primes):
            out[..., i, :] = rng.integers(0, int(p), size=(*leading, self.n))
        return out

    def sample_noise(
        self, rng: np.random.Generator, stddev: float, *leading: int
    ) -> np.ndarray:
        """Truncated discrete Gaussian error polynomial (the scheme's chi)."""
        bound = int(6 * stddev)
        raw = np.rint(rng.normal(0.0, stddev, size=(*leading, self.n))).astype(np.int64)
        np.clip(raw, -bound, bound, out=raw)
        return self.from_signed_small(raw)

    def sample_ternary(self, rng: np.random.Generator, *leading: int) -> np.ndarray:
        """Uniform ternary polynomial with coefficients in {-1, 0, 1}."""
        raw = rng.integers(-1, 2, size=(*leading, self.n)).astype(np.int64)
        return self.from_signed_small(raw)

    def from_signed_small(self, coeffs: np.ndarray) -> np.ndarray:
        """RNS form of small signed int64 coefficients (|c| < min prime)."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if not kernels.active().lazy_reduction:
            return coeffs[..., None, :] % self._p_col
        # |c| < p, so one branch-free conditional add replaces the division:
        # (c >> 63) is an all-ones mask exactly for negative coefficients.
        out = np.empty((*coeffs.shape[:-1], self.k, self.n), dtype=np.int64)
        neg = (coeffs >> 63)
        for i, p in enumerate(self._prime_list):
            out[..., i, :] = coeffs + (neg & p)
        return out

    # ------------------------------------------------------------------
    # ring operations (domain-agnostic: valid in both coeff and NTT form)
    # ------------------------------------------------------------------
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not kernels.active().lazy_reduction:
            return (a + b) % self._p_col
        # Conditional subtract: inputs are reduced residues in [0, p), so the
        # sum is in [0, 2p) and one subtract-and-fixup replaces the division
        # of a full ``%``.  (s >> 63) is an all-ones mask exactly when the
        # speculative subtraction went negative.
        s = a + b
        s -= self._p_col
        s += (s >> 63) & self._p_col
        return s

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if not kernels.active().lazy_reduction:
            return (a - b) % self._p_col
        d = a - b  # in (-p, p); one conditional add restores [0, p)
        d += (d >> 63) & self._p_col
        return d

    def neg(self, a: np.ndarray) -> np.ndarray:
        return (-a) % self._p_col

    def mul_scalar(self, a: np.ndarray, value: int) -> np.ndarray:
        out = a * self.scalar_residues(value)
        return self._reduce_product(out)

    def pointwise_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficient-wise product; this is ring multiplication iff both
        operands are in NTT domain."""
        return self._reduce_product(a * b)

    def _reduce_product(self, prod: np.ndarray) -> np.ndarray:
        """Reduce a freshly materialized ``(..., k, n)`` product in place.

        Under lazy-reduction kernels each prime's plane is reduced with a
        scalar modulus (measurably faster than one broadcast array ``%``);
        the reference profile keeps the broadcast form.  Same values either
        way."""
        if not kernels.active().lazy_reduction:
            return prod % self._p_col
        for i, p in enumerate(self._prime_list):
            prod[..., i, :] %= p
        return prod

    def reduce_sum(self, a: np.ndarray, axis: int) -> np.ndarray:
        """Sum a batch of ring elements along one leading (batch) axis.

        Equivalent to folding :meth:`add` over that axis but performed as a
        single numpy reduction with one trailing ``%``: fully reduced
        residues are < 2^31, so up to :attr:`max_sum_terms` (>= 2^32) terms
        accumulate exactly in int64 before the deferred reduction.
        """
        axis = axis % a.ndim
        if axis >= a.ndim - 2:
            raise ParameterError(
                "reduce_sum operates on batch axes; the trailing two axes "
                "are the RNS residue and coefficient dimensions"
            )
        if a.shape[axis] > self.max_sum_terms:
            raise ParameterError(
                f"deferred reduction overflow: summing {a.shape[axis]} residues "
                f"< {self._p_max} exceeds int64 (max {self.max_sum_terms} terms)"
            )
        return np.add.reduce(a, axis=axis) % self._p_col

    def pointwise_mul_sum(self, a: np.ndarray, b: np.ndarray, axis: int) -> np.ndarray:
        """Fused ``reduce_sum(pointwise_mul(a, b), axis)`` with bounded memory.

        The broadcast product is materialized in chunks along ``axis``; each
        chunk's products are reduced mod p (products of two residues can
        reach ~2^62, so they cannot be accumulated lazily) and the reduced
        terms -- each < p_max < 2^31 -- are summed exactly in int64 with one
        trailing ``%`` per prime.  This is the conv/dense tap-batch kernel
        and the serving flush's coefficient fold: one multiply pass + one
        reduction instead of a Python loop of ``multiply_plain`` / ``add``
        allocations, peaking at one product chunk (``_MUL_SUM_CHUNK_ELEMS``)
        plus two output-sized arrays.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        out_shape = np.broadcast_shapes(a.shape, b.shape)
        axis = axis % len(out_shape)
        if axis >= len(out_shape) - 2:
            raise ParameterError(
                "pointwise_mul_sum reduces a batch axis; the trailing two "
                "axes are the RNS residue and coefficient dimensions"
            )
        terms = out_shape[axis]
        if terms > self.max_sum_terms:
            raise ParameterError(
                f"deferred reduction overflow: summing {terms} residues "
                f"< {self._p_max} exceeds int64 (max {self.max_sum_terms} terms)"
            )
        slice_elems = 1
        for i, dim in enumerate(out_shape):
            if i != axis:
                slice_elems *= dim
        chunk = max(1, _MUL_SUM_CHUNK_ELEMS // max(1, slice_elems))
        a_full = np.broadcast_to(a, out_shape)
        b_full = np.broadcast_to(b, out_shape)
        index: list = [slice(None)] * len(out_shape)
        acc: np.ndarray | None = None
        prod: np.ndarray | None = None
        for start in range(0, terms, chunk):
            index[axis] = slice(start, start + chunk)
            lhs, rhs = a_full[tuple(index)], b_full[tuple(index)]
            if prod is not None and prod.shape == lhs.shape:
                # Reuse the chunk-sized scratch: allocating the next product
                # while the last is still bound would double the peak.
                np.multiply(lhs, rhs, out=prod)
            else:
                prod = lhs * rhs
            for i, p in enumerate(self._prime_list):
                prod[..., i, :] %= p
            if acc is None:
                acc = np.add.reduce(prod, axis=axis)
            else:
                acc += np.add.reduce(prod, axis=axis)
        assert acc is not None  # terms >= 1 always holds for layer kernels
        for i, p in enumerate(self._prime_list):
            acc[..., i, :] %= p
        return acc

    # ------------------------------------------------------------------
    # domain conversion
    # ------------------------------------------------------------------
    def ntt(self, a: np.ndarray) -> np.ndarray:
        if kernels.active().stacked_ntt:
            return self.stacked.forward(a)
        out = np.empty_like(a)
        for i, plan in enumerate(self.plans):
            out[..., i, :] = plan.forward(a[..., i, :])
        return out

    def intt(self, a: np.ndarray) -> np.ndarray:
        if kernels.active().stacked_ntt:
            return self.stacked.inverse(a)
        out = np.empty_like(a)
        for i, plan in enumerate(self.plans):
            out[..., i, :] = plan.inverse(a[..., i, :])
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full ring multiplication of coefficient-domain operands."""
        return self.intt(self.pointwise_mul(self.ntt(a), self.ntt(b)))

    # ------------------------------------------------------------------
    # big-integer bridge (decrypt, tensor product, relinearization digits)
    # ------------------------------------------------------------------
    def to_bigint(self, a: np.ndarray) -> np.ndarray:
        """CRT-lift RNS residues to object-array coefficients in ``[0, q)``.

        Input shape ``(..., k, n)`` -> output shape ``(..., n)``.
        """
        acc = np.zeros((*a.shape[:-2], self.n), dtype=object)
        for i in range(self.k):
            acc = acc + a[..., i, :].astype(object) * self._crt_weights[i]
        return acc % self.q

    def to_bigint_centered(self, a: np.ndarray) -> np.ndarray:
        """Like :meth:`to_bigint` but mapped into ``(-q/2, q/2]``."""
        lifted = self.to_bigint(a)
        return np.where(lifted > self.q // 2, lifted - self.q, lifted)

    def to_int64_centered(self, a: np.ndarray) -> np.ndarray:
        """Exact centered CRT lift as int64 (requires ``q < 2^62``).

        Garner's mixed-radix reconstruction: every intermediate stays below
        ``q``, so for ``q < 2^62`` the whole lift runs in int64 -- no
        object-dtype arithmetic.  Bit-identical (after ``astype(object)``)
        to :meth:`to_bigint_centered`.
        """
        if not self.q_fits_int64:
            raise ParameterError(
                f"q has {self.q.bit_length()} bits; the int64 CRT lift "
                "requires q < 2^62 (use to_bigint_centered)"
            )
        acc = a[..., 0, :].astype(np.int64, copy=True)
        for i in range(1, self.k):
            p = self._prime_list[i]
            d = (a[..., i, :] - acc) % p
            d *= self._garner_invs[i]
            d %= p
            acc += self._garner_prods[i] * d
        return np.where(acc > self.q // 2, acc - self.q, acc)

    def scale_round_int64(self, centered: np.ndarray, numer: int) -> np.ndarray:
        """Exact ``round(numer * v / q)`` of centered int64 coefficients,
        without leaving machine words.

        Same integers as :meth:`scale_and_round`'s rule (nearest, halves away
        from zero) for ``|v| <= q/2``.  ``numer * |v|`` overflows int64, so
        the quotient is *estimated* in float64 and then made exact: the
        remainder ``|v| * numer + q//2 - est * q`` is evaluated in wrapping
        64-bit arithmetic, which yields its true value whenever the estimate
        is within one of the quotient (the true remainder then lies in
        ``[-q, 2q)``, inside int64 for ``q < 2^62``), and one conditional
        step moves it into ``[0, q)``.

        Bound argument: four float64 roundings enter the estimate (the
        conversion of ``|v|``, the correctly rounded ``numer / q``, their
        product, the ``+ 0.5``), each relative ``2^-53`` on a value of at
        most ``numer/2 + 1``; for ``numer < 2^50`` the estimate is therefore
        within ``1/4`` of the real quotient and its floor within one of the
        true one.  The post-condition ``0 <= rem < q`` is nevertheless
        *checked*: an input outside the proven range raises instead of
        yielding a wrong coefficient.

        Raises:
            ParameterError: ``q >= 2^62``, ``numer`` outside ``[1, 2^50)``,
                a coefficient beyond ``q/2``, or a failed remainder check.
        """
        if not self.q_fits_int64:
            raise ParameterError(
                f"q has {self.q.bit_length()} bits; int64 rounding requires "
                "q < 2^62 (use scale_and_round)"
            )
        if not 0 < numer < SCALE_ROUND_MAX_NUMER:
            raise ParameterError(
                f"int64 rounding requires 0 < numer < 2^50, got {numer}"
            )
        centered = np.asarray(centered, dtype=np.int64)
        negative = centered.ravel() < 0
        # uint64 views of 1-d arrays: products wrap silently mod 2^64, and one
        # unsigned compare checks both ends of a signed range.
        q, half = np.uint64(self.q), np.uint64(self.q // 2)
        mag = np.abs(centered).ravel().view(np.uint64)
        if (mag > half).any():
            raise ParameterError("int64 rounding expects coefficients in [-q/2, q/2]")
        est = np.floor(mag * (numer / self.q) + 0.5).astype(np.int64)
        rem = (mag * np.uint64(numer) + half - est.view(np.uint64) * q).view(np.int64)
        step = (rem >= self.q).astype(np.int64)
        step -= rem < 0
        est += step
        step *= self.q
        rem -= step
        if (rem.view(np.uint64) >= q).any():
            raise ParameterError(
                "int64 rounding remainder left [0, q): quotient estimate off "
                "by more than one"
            )
        np.negative(est, out=est, where=negative)
        return est.reshape(centered.shape)

    def convolve_exact(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact signed negacyclic convolution of centered bigint coefficient
        arrays (used by the FV tensor product)."""
        return negacyclic_convolve_exact(a, b, self.n, self.q // 2 + 1)

    def scale_and_round(self, coeffs: np.ndarray, numer: int, denom: int) -> np.ndarray:
        """Round ``coeffs * numer / denom`` to nearest integer and reduce to RNS.

        Implements FV's ``round(t/q * .)`` step on exact integer coefficients.
        """
        scaled = coeffs * numer
        half = denom // 2
        rounded = np.where(
            scaled >= 0, (scaled + half) // denom, -((-scaled + half) // denom)
        )
        return self.from_int_coeffs(rounded)
