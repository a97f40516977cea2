"""Negacyclic number-theoretic transforms over word-size primes.

The FV scheme works in ``R_q = Z_q[x] / (x^n + 1)``.  Multiplication in that
ring is a *negacyclic* convolution, computed here with the standard
Longa-Naehrig NTT: powers of a primitive ``2n``-th root of unity ``psi`` are
folded into the butterfly tables, so no separate pre/post twisting pass is
needed.

All transforms are vectorized with numpy over arbitrary leading axes: an
array of shape ``(..., n)`` is transformed along its last axis in one call.
Primes are restricted to < 2^31 so every intermediate product fits in int64.

:class:`StackedNttPlan` is the engine of every timed transform: the ring's
own primes, the one-prime slot codec, and the auxiliary basis of the RNS
ciphertext multiply (:class:`repro.he.polyring.AuxBasis`).
:func:`negacyclic_convolve_exact` -- object-dtype inputs, one
:class:`NttPlan` per auxiliary prime, a Python-int CRT sum -- is the
reference-profile tensor product, kept as the oracle the RNS kernel is held
to; nothing under the fused profile calls it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.he import modmath


def bit_reverse_indices(n: int) -> np.ndarray:
    """Indices ``[bitrev(0), ..., bitrev(n-1)]`` for an ``n``-point transform."""
    bits = n.bit_length() - 1
    indices = np.arange(n, dtype=np.int64)
    result = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        result = (result << 1) | (indices & 1)
        indices >>= 1
    return result


class NttPlan:
    """Precomputed tables for negacyclic NTTs of length ``n`` modulo ``prime``.

    Attributes:
        n: transform length (power of two).
        prime: NTT-friendly prime, ``prime ≡ 1 (mod 2n)`` and ``prime < 2^31``.
    """

    def __init__(self, n: int, prime: int) -> None:
        if n < 2 or n & (n - 1):
            raise ParameterError(f"n must be a power of two, got {n}")
        if prime >= 1 << 31:
            raise ParameterError(f"prime must be < 2^31 for int64 safety, got {prime}")
        if (prime - 1) % (2 * n):
            raise ParameterError(f"prime {prime} does not support a {2 * n}-point NTT")
        self.n = n
        self.prime = prime
        psi = modmath.root_of_unity(2 * n, prime)
        psi_inv = modmath.invert_mod(psi, prime)
        rev = bit_reverse_indices(n)
        powers = self._power_table(psi)
        inv_powers = self._power_table(psi_inv)
        # psi^bitrev(i) tables drive the merged-twist butterflies.
        self._psi_rev = powers[rev]
        self._psi_inv_rev = inv_powers[rev]
        self._n_inv = modmath.invert_mod(n, prime)

    def _power_table(self, base: int) -> np.ndarray:
        table = np.empty(self.n, dtype=np.int64)
        value = 1
        for i in range(self.n):
            table[i] = value
            value = value * base % self.prime
        return table

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic NTT along the last axis; output in bit-reversed order."""
        a = self._checked_copy(values)
        p = self.prime
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            view = a.reshape(*a.shape[:-1], m, 2, t)
            s = self._psi_rev[m : 2 * m].reshape(m, 1)
            u = view[..., 0, :]
            v = view[..., 1, :] * s % p
            lo = (u + v) % p
            hi = (u - v) % p
            view[..., 0, :] = lo
            view[..., 1, :] = hi
            m *= 2
        return a

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`; accepts bit-reversed order, returns
        natural-order coefficients."""
        a = self._checked_copy(values)
        p = self.prime
        t = 1
        m = self.n
        while m > 1:
            h = m // 2
            view = a.reshape(*a.shape[:-1], h, 2, t)
            s = self._psi_inv_rev[h : 2 * h].reshape(h, 1)
            u = view[..., 0, :]
            v = view[..., 1, :]
            lo = (u + v) % p
            hi = (u - v) % p * s % p
            view[..., 0, :] = lo
            view[..., 1, :] = hi
            t *= 2
            m = h
        return a * self._n_inv % p

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Negacyclic convolution of coefficient-domain inputs."""
        return self.inverse(self.forward(a) * self.forward(b) % self.prime)

    def _checked_copy(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        if values.shape[-1] != self.n:
            raise ParameterError(
                f"last axis must have length {self.n}, got {values.shape[-1]}"
            )
        return values.astype(np.int64, copy=True)


class StackedNttPlan:
    """Prime-stacked negacyclic NTT over a whole RNS residue tensor.

    Where :class:`NttPlan` transforms one prime's residues at a time, this
    plan stacks the ``k`` per-prime twiddle tables into ``(k, n)`` arrays and
    runs a **single** butterfly loop of ``log n`` numpy stages over the whole
    ``(..., k, n)`` tensor, with *lazy reduction*: butterflies add/subtract
    without reducing, a per-prime offset keeps values nonnegative, and a full
    ``%`` pass runs only when the tracked bound would make the next twiddle
    multiplication overflow int64.

    Value-range invariants (``p_max`` = largest prime, all primes < 2^31):

    * residues enter every stage below a tracked bound ``B`` (initially
      ``p_max``);
    * the forward butterfly reduces the twiddle product mod p, so both
      outputs stay below ``B + p_max`` -- ``B`` grows by ``p_max`` per stage;
    * the inverse butterfly defers both halves: ``u + v < 2B`` and
      ``(u - v + off) * s`` requires ``2B + p <= MULT_SAFE`` first (``B``
      tracked per prime there, so a freshly reduced row counts as ``< p``);
    * before any multiplication by a twiddle/scalar ``s < p_max`` the operand
      must be below ``MULT_SAFE = (2^63 - 1) // (p_max - 1)`` (>= 2^32 for
      31-bit primes, ~2^33 for the 30-bit default), which is when the
      deferred ``%`` pass runs -- once every few stages instead of three
      times per stage.

    Outputs are fully reduced to ``[0, p)`` and **bit-identical** to running
    the per-prime :class:`NttPlan` (which remains the single-prime reference
    implementation) over each residue row.
    """

    def __init__(self, n: int, primes, plans: list[NttPlan] | None = None) -> None:
        if plans is None:
            plans = [NttPlan(n, int(p)) for p in primes]
        self.n = n
        self.k = len(plans)
        self.primes = np.array([plan.prime for plan in plans], dtype=np.int64)
        self._prime_list = [plan.prime for plan in plans]
        self._p_max = max(self._prime_list)
        # Largest safe multiplicand for v * s with s < p_max (int64 ceiling).
        self._mult_safe = ((1 << 63) - 1) // (self._p_max - 1)
        assert self._mult_safe >= 1 << 32, "primes must be < 2^31"
        self._p_off = self.primes.reshape(self.k, 1, 1, 1)
        self._psi_rev = np.stack([plan._psi_rev for plan in plans])
        self._psi_inv_rev = np.stack([plan._psi_inv_rev for plan in plans])
        self._n_inv = [plan._n_inv for plan in plans]
        self._coeff_weight_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _prime_front(self, values: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Copy ``(..., k, n)`` into prime-major ``(k, B, n)`` layout so the
        deferred per-prime ``%`` passes run on contiguous rows with a scalar
        modulus (numpy's fast path) while butterflies span all primes."""
        values = np.asarray(values)
        if values.ndim < 2 or values.shape[-1] != self.n or values.shape[-2] != self.k:
            raise ParameterError(
                f"expected trailing shape (k={self.k}, n={self.n}), "
                f"got {values.shape}"
            )
        batch = values.shape[:-2]
        x = np.moveaxis(values, -2, 0).astype(np.int64, order="C", copy=True)
        return x.reshape(self.k, -1, self.n), batch

    def _restore(self, x: np.ndarray, batch: tuple[int, ...]) -> np.ndarray:
        out = np.moveaxis(x.reshape(self.k, *batch, self.n), 0, -2)
        return np.ascontiguousarray(out)

    def _reduce_rows(self, x: np.ndarray) -> None:
        for i, p in enumerate(self._prime_list):
            x[i] %= p

    # ------------------------------------------------------------------
    def forward(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic NTT of every residue row of a ``(..., k, n)`` tensor;
        bit-identical to ``NttPlan.forward`` per prime."""
        x, batch = self._prime_front(values)
        b = x.shape[1]
        bound = self._p_max  # exclusive bound on every element
        t = self.n
        m = 1
        while m < self.n:
            t //= 2
            if bound > self._mult_safe:
                self._reduce_rows(x)
                bound = self._p_max
            view = x.reshape(self.k, b, m, 2, t)
            u = view[..., 0, :]
            w = view[..., 1, :] * self._psi_rev[:, None, m : 2 * m, None]
            for i, p in enumerate(self._prime_list):
                w[i] %= p  # w < p; the stage's one reduction pass
            hi = u - w  # > -p_max, lazily fixed up below
            hi += self._p_off  # hi in [0, bound + p), same class mod p
            w += u  # lo in [0, bound + p_max)
            view[..., 0, :] = w
            view[..., 1, :] = hi
            bound += self._p_max
            m *= 2
        self._reduce_rows(x)
        return self._restore(x, batch)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`; bit-identical to ``NttPlan.inverse``
        per prime."""
        x, batch = self._prime_front(values)
        b = x.shape[1]
        # Tracked per prime: after a reduction pass row i is below p_i, not
        # just below p_max, and with 31-bit primes only that tighter bound
        # keeps the lifted difference under MULT_SAFE.
        bound = self.primes.copy()
        t = 1
        m = self.n
        while m > 1:
            h = m // 2
            if int((2 * bound + self.primes).max()) > self._mult_safe:
                self._reduce_rows(x)
                bound = self.primes.copy()
            # Per-prime multiple of p lifting u - v (> -bound) to >= 0.
            off = (-(-bound // self.primes) * self.primes).reshape(self.k, 1, 1, 1)
            view = x.reshape(self.k, b, h, 2, t)
            u = view[..., 0, :]
            v = view[..., 1, :]
            d = u - v
            d += off  # d in [0, bound + off) subset [0, 2*bound + p)
            d *= self._psi_inv_rev[:, None, h : 2 * h, None]
            for i, p in enumerate(self._prime_list):
                d[i] %= p
            lo = u + v  # < 2 * bound, deferred
            view[..., 0, :] = lo
            view[..., 1, :] = d
            bound *= 2
            t *= 2
            m = h
        if int(bound.max()) > self._mult_safe:
            self._reduce_rows(x)
        for i, p in enumerate(self._prime_list):
            x[i] *= self._n_inv[i]
            x[i] %= p
        return self._restore(x, batch)

    # ------------------------------------------------------------------
    def inverse_coeff_weights(self, index: int) -> np.ndarray:
        """Weights ``W`` of shape ``(k, n)`` such that coefficient ``index``
        of the inverse NTT is ``sum_i X[i] * W[:, i] mod p`` per prime.

        The forward transform stores the evaluation at ``psi^(2*bitrev(i)+1)``
        in slot ``i``, so one inverse-NTT output coefficient is a single
        weighted reduction over the ``n`` slots -- the basis of the O(n)
        constant-coefficient decrypt shortcut (the full ``inverse`` costs
        ``log n`` butterfly stages).
        """
        if not 0 <= index < self.n:
            raise ParameterError(f"coefficient index {index} out of range [0, {self.n})")
        cached = self._coeff_weight_cache.get(index)
        if cached is not None:
            return cached
        rev = bit_reverse_indices(self.n)
        out = np.empty((self.k, self.n), dtype=np.int64)
        for ki, p in enumerate(self._prime_list):
            psi = modmath.root_of_unity(2 * self.n, p)
            psi_inv = modmath.invert_mod(psi, p)
            n_inv = self._n_inv[ki]
            for i in range(self.n):
                exp = (2 * int(rev[i]) + 1) * index
                out[ki, i] = pow(psi_inv, exp, p) * n_inv % p
        out.flags.writeable = False
        self._coeff_weight_cache[index] = out
        return out


def negacyclic_convolve_exact(
    a: np.ndarray, b: np.ndarray, n: int, bound: int
) -> np.ndarray:
    """Exact integer negacyclic convolution of big-integer polynomials.

    Used for the FV tensor product, whose coefficients (up to ``n * (q/2)^2``)
    overflow int64.  The inputs are object arrays of Python ints with absolute
    values below ``bound``; the product is assembled by CRT over enough
    word-size NTT primes to cover the worst-case coefficient.

    Args:
        a, b: object arrays with shape ``(..., n)`` holding Python ints.
        n: polynomial degree (power of two).
        bound: strict bound on ``abs`` of every input coefficient.

    Returns:
        An object array of exact (signed) product coefficients.
    """
    max_coeff = 2 * n * bound * bound  # symmetric range plus safety factor
    plans = _aux_plans(n, max_coeff)
    primes = [plan.prime for plan in plans]
    residues = []
    for plan in plans:
        ra = (a % plan.prime).astype(np.int64)
        rb = (b % plan.prime).astype(np.int64)
        residues.append(plan.multiply(ra, rb))
    modulus = modmath.product(primes)
    lifted = np.zeros(residues[0].shape, dtype=object)
    for res, prime in zip(residues, primes):
        partial = modulus // prime
        weight = partial * modmath.invert_mod(partial, prime)
        lifted = lifted + res.astype(object) * weight
    lifted %= modulus
    return np.where(lifted > modulus // 2, lifted - modulus, lifted)


_AUX_PLAN_CACHE: dict[tuple[int, int], list[NttPlan]] = {}


def _aux_plans(n: int, max_coeff: int) -> list[NttPlan]:
    """NTT plans whose prime product exceeds ``2 * max_coeff``."""
    needed_bits = max_coeff.bit_length() + 1
    count = needed_bits // 29 + 1
    key = (n, count)
    if key not in _AUX_PLAN_CACHE:
        primes = modmath.ntt_primes(30, n, count)
        _AUX_PLAN_CACHE[key] = [NttPlan(n, p) for p in primes]
    return _AUX_PLAN_CACHE[key]
