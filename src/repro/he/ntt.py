"""Negacyclic number-theoretic transforms over word-size primes.

The FV scheme works in ``R_q = Z_q[x] / (x^n + 1)``.  Multiplication in that
ring is a *negacyclic* convolution, computed here with the standard
Longa-Naehrig NTT: powers of a primitive ``2n``-th root of unity ``psi`` are
folded into the butterfly tables, so no separate pre/post twisting pass is
needed.

All transforms are vectorized with numpy over arbitrary leading axes: an
array of shape ``(..., n)`` is transformed along its last axis in one call.
Primes are restricted to < 2^31 so every intermediate product fits in int64.

:class:`NttPlan` is that butterfly loop for one prime: the single-prime
oracle and the engine of the oracle ring (:mod:`repro.he.oracle`).
:class:`StackedNttPlan` computes the same transform of a whole ``(..., k, n)`` residue tensor as a
four-step factorisation whose two steps are exact float64 matrix products
(limb-split so every GEMM sum stays below 2^53), and is the engine of every
timed transform: the ring's own primes and the auxiliary basis of the RNS
ciphertext multiply
(:class:`repro.he.polyring.AuxBasis`).
:func:`negacyclic_convolve_exact` -- object-dtype inputs, one
:class:`NttPlan` per auxiliary prime, a Python-int CRT sum -- is the
oracle's tensor product, the reference the RNS kernel is held to; nothing
in production calls it.
"""

from __future__ import annotations

import weakref

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


#: Residues transformed per block: 32 rows at ``n = 1024``, i.e. four
#: 256 KiB float64 scratch arrays that stay cache-resident next to one
#: prime's tables.  Measured on the ``(432, 2, 1024)`` encrypt stack: 2^13 ->
#: 14.6, 2^14 -> 12.7, **2^15 -> 12.7**, 2^16 -> 12.8 ms (butterfly loop:
#: 61 ms); at ``n = 4096`` 2^14 -> 4.2, 2^15 -> 3.0 ms.
_BLOCK_ELEMS = 1 << 15

#: Integers below 2^53 -- and sums of them that stay below it -- are exact in
#: float64 whatever the order of summation.
_EXACT_LIMIT = 1 << 53


def _index_split(n: int) -> tuple[int, int]:
    """``(n1, n0)`` with ``n = n1 * n0`` and ``n1 = 2^ceil(log2(n)/2)``."""
    n1 = 1 << (n.bit_length() // 2)
    return n1, n // n1


def _limb_split(n1: int, p_max: int, bound: int | None = None) -> tuple[int, int]:
    """Fewest limbs ``(count, width)`` of the matrix entries for which every
    GEMM sum and every recombined value of :class:`StackedNttPlan` stays
    below 2^53 (the bound is derived in the class docstring), for GEMM
    inputs in ``[0, bound)`` -- by default ``[0, 2 p_max)``, the lazily
    reduced residues the second step is fed.

    Raises:
        ParameterError: if no split does -- nothing inexact is ever returned.
    """
    bits = p_max.bit_length()
    lazy = 2 * p_max - 1  # largest value a recombination carries: [0, 2p)
    x_max = lazy if bound is None else bound - 1
    for count in range(1, bits + 1):
        width = -(-bits // count)
        worst = n1 * x_max * ((1 << width) - 1)
        if count > 1:
            worst += lazy << width
        if worst < _EXACT_LIMIT:
            return count, width
    raise ParameterError(
        f"no limb split keeps a {n1}-term float64 GEMM exact for primes up "
        f"to {p_max}"
    )


def _weighted_limbs(matrix: np.ndarray, limbs: int, width: int) -> np.ndarray:
    """``(limbs, *matrix.shape)`` float64, C order whatever the int64
    ``matrix``'s was; limb ``l`` keeps its weight ``2^(l*width)``, so the
    limbs of an entry sum to it."""
    shifts = (width * np.arange(limbs)).reshape(-1, *(1,) * matrix.ndim)
    return (matrix & (((1 << width) - 1) << shifts)).astype(np.float64, order="C")


class _PrimeTables:
    """One prime's weighted-limb float64 matrices for one direction: ``lead``
    of shape ``(limbs, 1, n1, n1)`` and ``tail`` of shape ``(limbs, n1, n0,
    n0)`` (see :class:`StackedNttPlan`), plus the forward ``lead`` re-split
    for bounded rows, built on first use and keyed by ``(limbs, width)``."""

    __slots__ = ("lead", "tail", "row_leads", "__weakref__")

    def __init__(self, lead: np.ndarray, tail: np.ndarray) -> None:
        self.lead = lead
        self.tail = tail
        self.row_leads: dict[tuple[int, int], np.ndarray] = {}

    def row_lead(self, limbs: int, width: int) -> np.ndarray:
        """``lead`` split into ``limbs`` limbs of ``width`` bits: the sum of
        the weighted limbs is the matrix itself, entries below ``p``."""
        split = self.row_leads.get((limbs, width))
        if split is None:
            matrix = self.lead.sum(axis=0).astype(np.int64)
            split = self.row_leads[limbs, width] = _weighted_limbs(matrix, limbs, width)
        return split


#: Tables are a pure function of their key, so plans over the same primes --
#: the client's, the server's and the enclave's contexts, every replica --
#: share one read-only copy for as long as any of them is alive.  Besides the
#: memory, that keeps a new context from planting long-lived blocks in the
#: middle of a request's transients (loop_trace: 494 -> 460 MiB peak RSS).
_SHARED_TABLES: "weakref.WeakValueDictionary[tuple, _PrimeTables]" = (
    weakref.WeakValueDictionary()
)


def _prime_tables(n: int, p: int, limbs: int, width: int, inverse: bool) -> _PrimeTables:
    """Fetch or build the tables of prime ``p`` (vectorized: ~1 ms at
    ``n = 1024``)."""
    key = (n, p, limbs, width, inverse)
    tables = _SHARED_TABLES.get(key)
    if tables is not None:
        return tables
    n1, n0 = _index_split(n)
    r1 = bit_reverse_indices(n1)
    r = r1[:, None, None] + n1 * bit_reverse_indices(n0)
    lead_exp = (2 * r1[:, None] + 1) * n0 * np.arange(n1)  # [j1, i1]
    tail_exp = (2 * r + 1) * np.arange(n0)[:, None]  # [j1, i0, j0]
    if inverse:  # the transposed matrices of psi^-1
        lead_exp, tail_exp = -lead_exp.T, -tail_exp.transpose(0, 2, 1)
    # psi^0 .. psi^(2n-1) by doubling: log2(2n) vectorized products.
    powers = np.ones(2 * n, dtype=np.int64)
    step = modmath.root_of_unity(2 * n, p)
    have = 1
    while have < 2 * n:
        powers[have : 2 * have] = powers[:have] * step % p
        step = step * step % p
        have *= 2
    lead = powers[lead_exp % (2 * n)]
    if inverse:
        lead = lead * modmath.invert_mod(n, p) % p
    tail = powers[tail_exp % (2 * n)]

    tables = _PrimeTables(
        _weighted_limbs(lead[None], limbs, width), _weighted_limbs(tail, limbs, width)
    )
    _SHARED_TABLES[key] = tables
    return tables


def _reduce(x: np.ndarray, q: np.ndarray, p: float, inv: float, out: np.ndarray) -> None:
    """``out = x - floor(x * inv) * p`` with ``q`` as scratch: four float64
    passes, no ``%``.  See :class:`StackedNttPlan` for the error argument."""
    np.multiply(x, inv, out=q)
    np.floor(q, out=q)
    np.multiply(q, p, out=q)
    np.subtract(x, q, out=out)


def _fold(sums, width: int, q, out, p: float, inv: float) -> None:
    """Recombine weighted limb sums ``(limbs, ...)`` of ``width``-bit limbs
    into ``out``, the value mod ``p`` in ``[0, 2p)``; ``sums`` is consumed."""
    acc = sums[-1]
    for l in range(len(sums) - 2, -1, -1):
        weight = float(1 << ((l + 1) * width))
        _reduce(acc, q, p * weight, inv / weight, out=acc)
        np.add(sums[l], acc, out=sums[l])
        acc = sums[l]
    _reduce(acc, q, p, inv, out=out)


class StackedNttPlan:
    """Negacyclic NTT of a whole ``(..., k, n)`` RNS residue tensor as exact
    float64 matrix products.

    Where :class:`NttPlan` runs ``log n`` butterfly stages over one prime's
    residues, this plan factors the same transform four-step (Bailey) style,
    ``n = n1 * n0`` with ``n1 = 2^ceil(log2(n)/2)``, and hands both steps to
    BLAS.  Write the input index ``i = n0*i1 + i0`` and the output slot
    ``j = n0*j1 + j0``; slot ``j`` holds the evaluation at ``psi^(2r+1)``
    with ``r = bitrev_n(j) = r1 + n1*r0``, ``r1 = bitrev_n1(j1)``,
    ``r0 = bitrev_n0(j0)``.  Because ``psi^(2n) = 1``,

        ``psi^((2r+1)*i) = psi^((2*r1+1)*n0*i1) * psi^((2r+1)*i0)``

    so with the residue row viewed as an ``(n1, n0)`` matrix ``A``

    * **lead**: ``Y = lead @ A``, ``lead[j1, i1] = psi^((2*r1+1)*n0*i1)`` --
      one ``(n1, n1)`` matrix per prime;
    * **tail**: ``X[j1, :] = Y[j1, :] @ tail[j1]``,
      ``tail[j1][i0, j0] = psi^((2r+1)*i0)`` -- one ``(n0, n0)`` matrix per
      ``j1``, which carries the inter-step twiddle, so there is no
      elementwise twiddle pass.

    The bit-reversed output order is the column order of the tables and the
    negacyclic twist is in the exponents, so there is no permutation or
    twist pass either.  The inverse is the transpose: the ``tail`` step with
    ``psi^(-(2r+1)*i0)`` first, then ``lead[i1, j1] = n^-1 *
    psi^(-(2*r1+1)*n0*i1)``.  Tables come from the same
    ``modmath.root_of_unity(2n, p)`` :class:`NttPlan` uses, are built when a
    direction first runs, are shared between plans over the same prime, and
    cost ``limbs * n * n0`` float64 per prime per direction: 512 KiB at
    ``n = 1024``, 4 MiB at ``n = 4096`` with two limbs.

    Exactness (``P`` = largest prime, all primes < 2^31).  Inputs are
    canonical residues ``[0, p)`` -- every caller's are -- or a bounded row
    (see :meth:`forward`).  A matrix entry ``m`` in ``[0, p)`` is split into
    ``limbs`` limbs of ``w`` bits, each stored *with* its weight, ``m =
    sum_l T_l``, ``T_l = 2^(l*w) * m_l``, and each limb gets its own GEMM.
    Then:

    * a limb sum is ``2^(l*w) * U`` with ``U <= terms * x_max * (2^w - 1)``
      an integer, ``terms <= n1`` and ``x_max <= 2P - 1`` (the second step
      is fed lazily reduced values); while ``U < 2^53`` every partial sum is
      an integer (times a power of two) below 2^53, so float64 accumulates
      it exactly in any order, with or without FMA, on any thread count;
    * limbs are recombined from the top: the running value ``2^((l+1)*w) *
      V`` is reduced modulo ``2^((l+1)*w) * p`` to ``2^((l+1)*w) * h`` with
      ``h`` in ``[0, 2p)`` and added to the next limb sum, giving
      ``2^(l*w) * (U + 2^w * h)``; this is exact while ``U + 2^w * (2P - 1)
      < 2^53``, which is the bound :func:`_limb_split` evaluates **once, in
      the constructor** (worst case ``terms = n1``, ``x_max = 2P - 1``),
      picking the fewest limbs that satisfy it and raising
      :class:`ParameterError` if none does.  Worst cases: 2^42.0 at
      ``paper_1024`` (24-bit primes), 2^51.0 at the 30-bit ``n = 1024``
      pipeline presets, 2^52.0 at ``functional_2048`` / ``functional_4096``,
      all with two limbs; 31-bit primes take three limbs from ``n = 512`` up
      (2^50.0 at ``n = 8192``).  A bounded row's first step is fed values
      below ``B``, so there ``x_max = B - 1`` and its limbs are split for
      that bound, per call;
    * the reduction is ``V - floor(V * inv) * p`` with ``inv = fl(1/p)``
      scaled *down* by ``1 - 2^-50``: the computed quotient is never above
      ``V / p`` and short of it by less than ``V/p * 2^-48 < 1``, so the
      floor is ``floor(V/p)`` or one less, ``floor * p <= V < 2^53`` is
      exact, and the result lies in ``[0, 2p)`` -- never negative;
    * the final pass is the same reduction with ``inv`` scaled *up* by
      ``1 + 2^-50``: on integers in ``[0, 2p)`` the computed quotient is
      ``>= 1`` exactly when ``V >= p`` and stays below 2, so the floor is
      exact and the output canonical.

    Exact arithmetic mod ``p`` has one answer in ``[0, p)``, so outputs are
    **bit-identical** to the per-prime :class:`NttPlan` (the single-prime
    reference implementation) for any BLAS, summation order or thread count.

    Rows are processed prime by prime in blocks of ``_BLOCK_ELEMS`` residues
    through one block of scratch per call (reused with ``out=`` by every
    block; ~1 MiB next to the result, where the butterfly loop held three
    copies of the tensor), which keeps one prime's tables and the block
    cache-resident and every GEMM at ``n1 x n1 x n0`` or smaller -- below
    the size at which OpenBLAS hands work to a second thread, which on a
    two-vCPU host costs milliseconds per hand-off.
    """

    def __init__(self, n: int, primes, plans: list[NttPlan] | None = None) -> None:
        if plans is None:
            plans = [NttPlan(n, int(p)) for p in primes]
        self.n = n
        self.k = len(plans)
        self.primes = np.array([plan.prime for plan in plans], dtype=np.int64)
        self._prime_list = [plan.prime for plan in plans]
        self._n1, self._n0 = _index_split(n)
        self._p_min, self._p_max = min(self._prime_list), max(self._prime_list)
        self._limbs, self._limb_bits = _limb_split(self._n1, self._p_max)
        self._n_inv = [plan._n_inv for plan in plans]
        self._tables: dict[bool, list[_PrimeTables]] = {}
        self._coeff_weight_cache: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    def _row_split(self, values: np.ndarray) -> tuple[int, int]:
        """First-step limbs ``(count, width)`` for a ``(..., 1, n)`` row,
        sized by its largest value.

        Raises:
            ParameterError: a value outside ``[0, min prime)``, where the row
                is not the same residues under every prime.
        """
        low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
        if low < 0 or high >= self._p_min:
            raise ParameterError(
                f"a (..., 1, {self.n}) row holds the same integers under every "
                f"prime: values must lie in [0, {self._p_min}), got [{low}, {high}]"
            )
        return _limb_split(self._n1, self._p_max, high + 1)

    def _transform(self, values: np.ndarray, inverse: bool) -> np.ndarray:
        values = np.asarray(values)
        k, n, n1, n0 = self.k, self.n, self._n1, self._n0
        row = not inverse and k > 1 and values.shape[-2:] == (1, n)
        if values.ndim < 2 or (values.shape[-2:] != (k, n) and not row):
            raise ParameterError(
                f"expected trailing shape (k={k}, n={n}), got {values.shape}"
            )
        lead_limbs, lead_bits = self._row_split(values) if row else (self._limbs, self._limb_bits)
        # Tables before the result: what outlives the call sits below what
        # does not.
        tables = self._tables.get(inverse)
        if tables is None:
            tables = self._tables[inverse] = [
                _prime_tables(n, p, self._limbs, self._limb_bits, inverse)
                for p in self._prime_list
            ]
        out = np.empty((*values.shape[:-2], k, n), dtype=np.int64)
        batch = out.size // (k * n)
        src = values.reshape(batch, values.shape[-2], n1, n0)
        dst = out.reshape(batch, k, n1, n0)
        block = max(1, _BLOCK_ELEMS // n)
        scratch = np.empty((self._limbs + 2, min(block, batch), n1, n0))
        for i, prime in enumerate(self._prime_list):
            p = float(prime)
            inv_down = 1.0 / p * (1.0 - 2.0**-50)
            inv_up = 1.0 / p * (1.0 + 2.0**-50)
            lead = tables[i].row_lead(lead_limbs, lead_bits) if row else tables[i].lead
            tail = tables[i].tail
            for start in range(0, batch, block):
                stop = min(start + block, batch)
                rows = scratch[:, : stop - start]
                a, q, sums = rows[0], rows[1], rows[2:]
                by_j1 = sums.transpose(0, 2, 1, 3)  # (limbs, n1, rows, n0)
                # a row is the same integers under every prime
                np.copyto(a, src[start:stop, 0 if row else i], casting="unsafe")
                if inverse:
                    np.matmul(a.transpose(1, 0, 2), tail, out=by_j1)
                    _fold(sums, self._limb_bits, q, a, p, inv_down)
                    np.matmul(lead, a, out=sums)
                else:
                    np.matmul(lead, a, out=sums[:lead_limbs])
                    _fold(sums[:lead_limbs], lead_bits, q, a, p, inv_down)
                    np.matmul(a.transpose(1, 0, 2), tail, out=by_j1)
                _fold(sums, self._limb_bits, q, a, p, inv_down)
                _reduce(a, q, p, inv_up, out=a)
                np.copyto(dst[start:stop, i], a, casting="unsafe")
        return out

    # ------------------------------------------------------------------
    def forward(self, values: np.ndarray) -> np.ndarray:
        """Negacyclic NTT of every residue row of a ``(..., k, n)`` tensor of
        canonical residues; bit-identical to ``NttPlan.forward`` per prime.

        A ``(..., 1, n)`` row (``k > 1``) holds integers in ``[0, min
        prime)``, the same under every prime: its ``(..., k, n)`` transform
        is that of the broadcast residues, with the first step's limbs sized
        by the row's largest value (one limb for 16-bit digits up to ``n =
        4096``) instead of by ``2p``.

        Raises:
            ParameterError: a trailing shape other than ``(k, n)`` or ``(1,
                n)``, or a row value outside ``[0, min prime)``.
        """
        return self._transform(values, inverse=False)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward`; bit-identical to ``NttPlan.inverse``
        per prime."""
        return self._transform(values, inverse=True)

    # ------------------------------------------------------------------
    def inverse_coeff_weights(self, index: int) -> np.ndarray:
        """Weights ``W`` of shape ``(k, n)`` such that coefficient ``index``
        of the inverse NTT is ``sum_i X[i] * W[:, i] mod p`` per prime.

        The forward transform stores the evaluation at ``psi^(2*bitrev(i)+1)``
        in slot ``i``, so one inverse-NTT output coefficient is a single
        weighted reduction over the ``n`` slots -- the basis of the O(n)
        constant-coefficient decrypt shortcut (the full ``inverse`` computes
        all ``n`` coefficients).
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
