"""RNS arithmetic in the ciphertext ring ``R_q = Z_q[x] / (x^n + 1)``.

The coefficient modulus ``q`` is a product of word-size NTT-friendly primes.
A ring element is stored as an int64 numpy array of per-prime residues with
shape ``(..., k, n)`` where ``k = len(primes)``; leading axes batch many
polynomials so whole ciphertext images can be processed in single numpy
calls.  Elements exist in either *coefficient* or *NTT (evaluation)* domain;
the domain is tracked by the caller (see :class:`repro.he.context.Ciphertext`).

:class:`MixedRadix` and :class:`AuxBasis` are the exact int64 base
conversion behind the ciphertext multiply, the relinearize digits and the
decrypt's rounding, at every width of ``q``: nothing here lifts a residue
to a Python int.  The Python-int formulas they are held to live in
:mod:`repro.he.oracle`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.he import modmath
from repro.he.ntt import _EXACT_LIMIT, NttPlan, StackedNttPlan

#: Low limb width of a mixed-radix digit in :meth:`MixedRadix.convert_centered`:
#: a digit below ``2^31`` splits into limbs below ``2^15`` and ``2^16``.
_DIGIT_LIMB = 15

#: Largest GEMM :meth:`MixedRadix.convert_centered` issues, in multiply-adds:
#: OpenBLAS keeps those on the calling thread, where one ``2^20`` product was
#: handed to a second thread and took 8.5-16 ms on a two-vCPU host.
_GEMM_MAX_MACS = 1 << 18


def _products_per_pass(top: int, value_bound: int) -> int:
    """How many unreduced products an int64 multiply-accumulate may add
    between two reductions (a reduction costs about two multiply-adds, so
    the sum is normalised once per run of products, not once per product).

    One factor of each product lies in ``[0, value_bound)``, the other in
    ``[0, top)``, and the accumulator enters a run reduced, i.e. below
    ``top``: ``top - 1 + per_pass (value_bound - 1)(top - 1) <= 2^63 - 1``.
    Every modulus of this package is below ``2^31``, so at least two
    products fit (31-bit primes) and eight for primes just under ``2^30``.
    """
    return ((1 << 63) - 1 - top) // ((value_bound - 1) * (top - 1))


#: Elements per block of :func:`_mod_rows`: one int64 quotient scratch of
#: this size is reused by every block, so the reduction's transient is
#: 256 KiB whatever the tensor (the transform's block, for the same reason).
_MOD_BLOCK_ELEMS = 1 << 15

#: Fewest elements per modulus for which :func:`_mod_rows` divides by
#: multiply-shift: below it its ``m + 2`` numpy calls per block cost more
#: than the hardware divides they save (measured even with ``%=`` at 1 024
#: elements per modulus, 10 % faster at 2 048).
_MOD_MIN_ELEMS = 1 << 11


def _mod_rows(data: np.ndarray, moduli) -> np.ndarray:
    """Reduce each row ``data[..., j, :]`` of a ``(..., m, n)`` int64 tensor
    modulo the scalar ``moduli[j]``, in place, and return it.

    The remainder is formed as ``x - (x // p) * p``: numpy divides by a
    scalar with a multiply-shift (about 1 ns per element) where ``%`` pays a
    hardware divide (about 4 ns).  Floor division puts the result in ``[0,
    p)`` for either sign -- the integers of ``np.remainder`` -- for every
    int64 ``x``: the quotient is exact, and where ``(x // p) * p`` leaves
    int64 (``x`` within ``p`` of ``-2^63``) numpy's wrapping multiply and
    subtract still return the true remainder, which fits.  The quotients go
    through one reused :data:`_MOD_BLOCK_ELEMS` scratch.  A tensor that
    cannot be viewed as ``(-1, m, n)``, or has fewer than
    :data:`_MOD_MIN_ELEMS` elements per modulus, takes one scalar ``%=`` per
    row instead.

    Raises:
        ParameterError: ``data`` is not ``(..., len(moduli), n)``.
    """
    m, n = len(moduli), data.shape[-1]
    if data.shape[-2:-1] != (m,):
        raise ParameterError(f"{m} moduli reduce (..., {m}, n) rows, got shape {data.shape}")
    rows = data.reshape(-1, m, n) if data.size >= m * _MOD_MIN_ELEMS else None
    # reshape copies a tensor it cannot view; the copy shares no memory
    if rows is None or not np.may_share_memory(rows, data):
        for j, p in enumerate(moduli):
            data[..., j, :] %= int(p)
        return data
    count = rows.shape[0]
    step = max(1, _MOD_BLOCK_ELEMS // (m * n))
    scratch = np.empty((min(step, count), m, n), dtype=np.int64)
    column = np.array(moduli, dtype=np.int64).reshape(m, 1)
    moduli = [int(p) for p in moduli]
    for lo in range(0, count, step):
        x = rows[lo : lo + step]
        q = scratch[: x.shape[0]]
        for j, p in enumerate(moduli):
            np.floor_divide(x[:, j], p, out=q[:, j])
        q *= column
        x -= q
    return data


def _dot_mod(values, weights, moduli, value_bound: int, offset=0) -> np.ndarray:
    """``offset + sum_i values[i] * weights[i]``, row ``j`` reduced modulo
    ``moduli[j]`` (see :func:`_mod_rows`), under the
    :func:`_products_per_pass` rule.

    ``values[i]`` are ``(..., m, n)`` in ``[0, value_bound)``, and
    ``weights[i]`` and ``offset`` in ``[0, moduli[j])`` elementwise: the
    offset is the reduced accumulator the first run of products enters.
    """
    per_pass = _products_per_pass(max(moduli), value_bound)
    acc = values[0] * weights[0]
    if offset:
        acc += offset
    for i in range(1, len(values)):
        if i % per_pass == 0:
            _mod_rows(acc, moduli)
        acc += values[i] * weights[i]
    return _mod_rows(acc, moduli)


class MixedRadix:
    """Exact machine-word base conversion out of one list of RNS primes.

    An integer ``x`` in ``[0, P)``, ``P = p_0 ... p_{k-1}``, given by its
    residues has unique mixed-radix digits ``x = d_0 + d_1 p_0 + d_2 p_0 p_1
    + ...`` with ``0 <= d_i < p_i`` (Garner).  The digits are machine words
    however wide ``P`` is, and every consumer reads ``x`` off them without
    ever forming it: :meth:`convert_centered` evaluates them modulo the
    ``targets`` moduli, :meth:`limbs` yields base-``2^w`` digits, and the
    decrypt's noise measurement compares them lexicographically.  Every
    prime is below ``2^31``, so a product of two residues is below ``2^62``
    and :func:`_dot_mod` keeps every sum of them inside int64.

    :meth:`convert_centered` converts the centered value of ``s x`` for a
    scale ``s`` (1 for a lift, ``t`` for the multiply's ``[t d]_q``) by the
    digits of ``[s x + (P-1)/2]_P`` (:meth:`digits` with ``scale=s``, which
    the decrypt reads too), a value in ``[0, P)``; the scale and
    the offset are Garner weights, so neither ``s x`` nor the shifted value
    is ever formed.  Digit ``j``'s dot product weighs ``r_j`` by ``[inv_j
    s]_{p_j}`` and starts from the constant ``[inv_j (P-1)/2]_{p_j}``, with
    ``inv_j = place_j^-1 mod p_j`` (row 0: ``[s r_0 + (P-1)/2]_{p_0}``).

    The target evaluation is one exact float64 GEMM per residue row: digit
    ``d_i`` enters as the limbs ``d_i & (2^15 - 1)`` and ``d_i >> 15`` (below
    ``2^16``), weighted by ``[place_i]_b`` and ``[2^15 place_i]_b``, and the
    ``-(P-1)/2`` offset as a constant-1 input weighted by ``[-(P-1)/2]_b``.
    Every partial sum is then a non-negative integer below ``k (2^15 + 2^16)
    b_max + b_max``; the constructor checks once that this is below ``2^53``,
    so float64 adds it exactly in any order, on any BLAS thread count (the
    argument of :class:`~repro.he.ntt.StackedNttPlan`), and one
    :func:`_mod_rows` per target finishes it.

    Arrays are ``(..., k, n)`` like every RNS tensor of this package.
    """

    def __init__(self, primes: Sequence[int], targets: Sequence[int] = ()) -> None:
        """Garner weights for ``primes`` and GEMM weights for ``targets``.

        Raises:
            ParameterError: the target evaluation's sums could reach ``2^53``.
        """
        self.primes = [int(p) for p in primes]
        self.k = len(self.primes)
        self.half = (modmath.product(self.primes) - 1) // 2
        self._bound = max(self.primes)
        # Place values 1, p_0, p_0 p_1, ...
        self.places = places = [modmath.product(self.primes[:j]) for j in range(self.k)]
        # d_j = (r_j - sum_{i<j} d_i place_i) / place_j mod p_j, written as one
        # dot product of (r_j, d_0, ..., d_{j-1}) with non-negative weights.
        self._garner: list[list[int]] = []
        for j, p in enumerate(self.primes):
            inv = modmath.invert_mod(places[j], p)
            self._garner.append([inv] + [-places[i] * inv % p for i in range(j)])
        # Per scale s: (weights, offset) of digit j of [s x + (P-1)/2]_P.
        self._scaled: dict[int, list[tuple[list[int], int]]] = {}
        self.targets = [int(b) for b in targets]
        if self.targets:
            b_max = max(self.targets)
            worst = self.k * ((1 << _DIGIT_LIMB) + (1 << 16)) * b_max + b_max
            if worst >= _EXACT_LIMIT:
                raise ParameterError(
                    f"base conversion from {self.k} primes to targets up to {b_max} "
                    f"sums to 2^{worst.bit_length()}: past the float64 GEMM's exact 2^53"
                )
        self._weights = np.array(
            [
                [place % b for place in places]
                + [(place << _DIGIT_LIMB) % b for place in places]
                + [-self.half % b]
                for b in self.targets
            ],
            dtype=np.float64,
        ).reshape(len(self.targets), 2 * self.k + 1)
        self._gemm_cols = max(1, _GEMM_MAX_MACS // max(1, self._weights.size))

    def digits(self, residues: np.ndarray, scale: int | None = None) -> np.ndarray:
        """Mixed-radix digits ``(..., k, n)`` of reduced residues ``(..., k, n)``
        -- of the value ``x`` they give or, with a ``scale`` ``s``, of ``[s x
        + (P-1)/2]_P`` (see the class docstring)."""
        if scale is None:
            rows = [(weights, 0) for weights in self._garner]
        else:
            rows = self._scaled_garner(scale)
        x = np.empty(residues.shape, dtype=np.int64)
        for j, (weights, offset) in enumerate(rows):
            if j == 0 and scale is None:  # weight 1, no offset: the residue
                x[..., 0, :] = residues[..., 0, :]
                continue
            terms = [residues[..., j : j + 1, :]] + [x[..., i : i + 1, :] for i in range(j)]
            x[..., j : j + 1, :] = _dot_mod(
                terms, weights, [self.primes[j]], self._bound, offset
            )
        return x

    def _scaled_garner(self, scale: int) -> list[tuple[list[int], int]]:
        """Digit ``j``'s weights and offset for ``[scale x + (P-1)/2]_P``."""
        rows = self._scaled.get(scale)
        if rows is None:
            rows = self._scaled[scale] = [
                ([weights[0] * scale % p, *weights[1:]], weights[0] * self.half % p)
                for weights, p in zip(self._garner, self.primes)
            ]
        return rows

    def convert_centered(self, residues: np.ndarray, scale: int = 1) -> np.ndarray:
        """Residues modulo the ``targets``, ``(..., T, n)``, of the
        *centered* representative in ``[-(P-1)/2, (P-1)/2]`` of ``scale``
        times the value with the given residues.

        The digits are those of ``[scale x + (P-1)/2]_P``, in ``[0, P)``;
        the offset is subtracted again on the target side, inside the GEMM
        (see the class docstring) -- no comparison against ``P/2`` is
        needed.  GEMMs are chunked along ``n`` to at most
        :data:`_GEMM_MAX_MACS` multiply-adds each.
        """
        k, t, n = self.k, len(self.targets), residues.shape[-1]
        digits = self.digits(residues, scale).reshape(-1, k, n)
        limbs = np.empty((digits.shape[0], 2 * k + 1, n))
        np.bitwise_and(digits, (1 << _DIGIT_LIMB) - 1, out=limbs[:, :k], casting="unsafe")
        np.right_shift(digits, _DIGIT_LIMB, out=limbs[:, k:-1], casting="unsafe")
        limbs[:, -1] = 1.0
        sums = np.empty((digits.shape[0], t, n))
        cols = self._gemm_cols
        for lo in range(0, n, cols):
            np.matmul(self._weights, limbs[..., lo : lo + cols], out=sums[..., lo : lo + cols])
        out = _mod_rows(sums.astype(np.int64), self.targets)
        return out.reshape(*residues.shape[:-2], t, n)

    def limb_widths(self, bits: int) -> list[int]:
        """Widths the limb arithmetic splits one ``bits``-wide digit into.

        A limb is ``sum_i d_i * limb(place_i) + carry`` with ``d_i <= p_max -
        1``, ``limb <= 2^width - 1`` and (by induction) ``carry <= k (p_max -
        1)``, so it is at most ``k (p_max - 1) 2^width``; the widest ``width
        <= bits`` keeping that below ``2^63`` is used -- ``[bits]`` itself
        whenever it fits (``w = 16`` at any ``k``, ``w = 30`` up to four
        primes), ``[29, 1]`` for ``w = 30`` beyond.
        """
        width = min(bits, 63 - (self.k * (self._bound - 1)).bit_length())
        whole, rest = divmod(bits, width)
        return [width] * whole + ([rest] if rest else [])

    def limbs(self, digits: np.ndarray, bits: int, count: int):
        """Yield the ``count`` low base-``2^bits`` digits, least significant
        first and each ``(..., n)`` int64, of the value with mixed-radix
        ``digits`` -- ``(x >> bits * j) & (2^bits - 1)`` without forming ``x``.
        """
        widths = self.limb_widths(bits)
        carry = np.zeros(digits.shape[:-2] + digits.shape[-1:], dtype=np.int64)
        offset = 0
        for _ in range(count):
            out, shift = 0, 0
            for width in widths:
                mask = (1 << width) - 1
                for i, place in enumerate(self.places):
                    limb = (place >> offset) & mask
                    if limb:
                        carry += digits[..., i, :] * limb
                out = out + ((carry & mask) << shift)
                carry >>= width
                shift += width
                offset += width
            yield out


def aux_primes(
    n: int, coeff_primes: Sequence[int], plain_modulus: int, terms: int = 1
) -> list[int]:
    """Auxiliary NTT primes for the RNS tensor product of ``(n, q, t)``.

    30-bit NTT-friendly primes for degree ``n``, **disjoint from q's** (a
    base conversion between overlapping bases is not a conversion), whose
    product exceeds ``terms * t * n * q + 3``, followed by one redundant
    check prime.  The bound is the worst case for *any* centered operands,
    well formed or not: a tensor coefficient is at most ``2 n ((q-1)/2)^2``
    in magnitude, an integer combination ``sum L_i d_i`` of products with
    ``||L||_1 <= terms`` at most ``terms`` times that, so ``|round(t d / q)|
    <= terms t n q / 2 + 1`` and a centered lift from the base is exact.
    """
    taken = {int(p) for p in coeff_primes}
    floor = terms * plain_modulus * n * modmath.product(taken) + 4
    # Every 30-bit prime exceeds 2^29, so this many cover the bound, the
    # check prime and every candidate that q already uses.
    count = floor.bit_length() // 29 + 2 + len(taken)
    pool = [p for p in modmath.ntt_primes(30, n, count) if p not in taken]
    base: list[int] = []
    while modmath.product(base) < floor:
        base.append(pool.pop(0))
    return [*base, pool[0]]


class AuxBasis:
    """The auxiliary RNS basis of one ``(ring, t)``: exact ``round(t d / q)``
    of FV tensor-product coefficients in int64.

    ``primes`` is a base ``B`` followed by one check prime (see
    :func:`aux_primes`).  :meth:`lift` carries centered ring elements into
    the basis, the caller multiplies pointwise per prime over ``q``, ``B``
    and the check prime (:attr:`plan` transforms the auxiliary rows), and
    :meth:`scale_round` divides: with ``rho`` the centered remainder of
    ``t d`` modulo ``q``, ``r = (t d - rho) / q`` is an exact division, so it
    can be done modulo every auxiliary prime by multiplying with ``q^-1``.
    ``rho`` comes off the ring residues of ``d`` with ``t`` as the
    conversion's scale, and enters the division with the weight ``[-q^-1]_b``.
    ``q`` is odd, hence ``t d / q`` is never half-way between two integers
    and ``|rho| < q/2`` makes ``r`` the nearest one for either sign -- the
    integer :meth:`repro.he.oracle.Ring.scale_and_round` (nearest, halves
    away from zero) returns.
    """

    def __init__(self, ring: "PolyContext", plain_modulus: int, primes: Sequence[int]) -> None:
        self.ring = ring
        self.primes = [int(p) for p in primes]
        self.plan = StackedNttPlan(ring.n, self.primes)
        self._to_aux = MixedRadix(ring.primes, self.primes)
        self._to_ring = MixedRadix(self.primes[:-1], [*ring.primes, self.primes[-1]])
        self._t = plain_modulus
        # r = (t d - rho) / q as a dot product of (d, rho) with (t/q, -1/q).
        q_inv = [modmath.invert_mod(ring.q, p) for p in self.primes]
        self._divide = [
            np.array([scale * inv % p for inv, p in zip(q_inv, self.primes)]).reshape(-1, 1)
            for scale in (plain_modulus, -1)
        ]

    def lift(self, coeff: np.ndarray) -> np.ndarray:
        """Auxiliary residues ``(..., len(primes), n)`` of the centered value
        of coefficient-domain ring elements ``(..., k, n)``."""
        return self._to_aux.convert_centered(coeff)

    def scale_round(self, d_ring: np.ndarray, d_aux: np.ndarray) -> np.ndarray:
        """Ring residues of ``round(t d / q)`` for integers ``d`` known
        modulo q's primes (``d_ring``) and the auxiliary primes (``d_aux``):
        one tensor product, or an integer combination of many whose norm the
        basis was sized for (:func:`aux_primes`' ``terms``).

        Raises:
            ParameterError: the result does not fit the base.  The lift back
                to ``q`` also evaluates the result modulo the check prime,
                where it was carried exactly all along; any disagreement
                means ``|r| > (prod B - 1)/2`` and no coefficient is returned.
        """
        rho = self._to_aux.convert_centered(d_ring, scale=self._t)
        r = _dot_mod([d_aux, rho], self._divide, self.primes, max(self.primes))
        back = self._to_ring.convert_centered(r[..., :-1, :])
        if not np.array_equal(back[..., -1, :], r[..., -1, :]):
            raise ParameterError(
                "RNS tensor product left the auxiliary basis: the rounded "
                "coefficient disagrees with its check-prime residue"
            )
        return back[..., :-1, :]


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
        self._prime_list = [int(p) for p in self.primes]
        self.q = modmath.product(self._prime_list)
        self.plans = [NttPlan(n, p) for p in self._prime_list]
        self.stacked = StackedNttPlan(n, self.primes, plans=self.plans)
        self._p_col = self.primes.reshape(self.k, 1)
        self._p_max = max(self._prime_list)
        # Deferred-reduction overflow bound: a sum of fully reduced residues
        # (each < p_max < 2^31) stays int64-exact for up to this many terms;
        # reduce_sum enforces it.
        self.max_sum_terms = ((1 << 63) - 1) // (self._p_max - 1)
        self._per_pass = _products_per_pass(self._p_max, self._p_max)
        # Per-value scalar residue cache (mul_scalar / from_scalar): weights,
        # Delta and bias constants recur across every inference.
        self._scalar_cache: dict[int, np.ndarray] = {}
        self.radix = MixedRadix(self._prime_list)

    # ------------------------------------------------------------------
    # construction / sampling
    # ------------------------------------------------------------------
    def zeros(self, *leading: int) -> np.ndarray:
        """A zero element (or batch of them) in RNS form."""
        return np.zeros((*leading, self.k, self.n), dtype=np.int64)

    def from_int_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Reduce signed int64 coefficients (shape ``(..., n)``) into RNS
        residues of shape ``(..., k, n)``."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.shape[-1] != self.n:
            raise ParameterError(f"expected degree {self.n}, got {coeffs.shape[-1]}")
        out = np.empty((*coeffs.shape[:-1], self.k, self.n), dtype=np.int64)
        for i, p in enumerate(self._prime_list):
            out[..., i, :] = coeffs % p
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
        # Conditional subtract: inputs are reduced residues in [0, p), so the
        # sum is in [0, 2p) and one subtract-and-fixup replaces the division
        # of a full ``%``.  (s >> 63) is an all-ones mask exactly when the
        # speculative subtraction went negative.
        s = a + b
        s -= self._p_col
        s += (s >> 63) & self._p_col
        return s

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
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
        """Reduce a freshly materialized ``(..., k, n)`` product in place."""
        return _mod_rows(prod, self._prime_list)

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
        return _mod_rows(np.add.reduce(a, axis=axis), self._prime_list)

    def pointwise_mul_sum(self, a, b, start: np.ndarray | None = None) -> np.ndarray:
        """``start + sum_i a[i] * b[i]`` modulo each prime, as one exact
        multiply-accumulate with deferred reduction.

        ``a`` and ``b`` yield the terms pairwise: any two iterables of
        reduced ``(..., k, n)`` arrays (an array is the sequence of its
        leading-axis rows; views, broadcast and read-only rows are read
        where they lie) whose products all broadcast to one shape.  One
        accumulator and one product scratch of that *output* shape are the
        only allocations; :func:`_products_per_pass` products are added
        unreduced between ``%`` passes and the result is canonical ``[0,
        p)`` -- the integers of folding :meth:`add` over
        :meth:`pointwise_mul`.  This is the serving flush's coefficient
        fold and the relinearization's digit x key inner product.

        ``start``, if given, is an array of canonical residues of the
        output shape that the caller hands over: the sum accumulates into
        it in place (canonical residues are the reduced accumulator a run
        of products may enter) and it is returned.

        Raises:
            ParameterError: no terms and no ``start``, terms that are not
                ``(..., k, n)`` ring elements, or a product that does not
                broadcast into the first one's (or ``start``'s) shape.
        """
        acc = start
        prod = None if start is None else np.empty_like(start)
        for i, (x, y) in enumerate(zip(a, b, strict=True)):
            if i and i % self._per_pass == 0:
                _mod_rows(acc, self._prime_list)
            if prod is None and i == 1:
                prod = np.empty_like(acc)
            try:
                # out=None (the first term without a start) allocates, so the
                # accumulator never aliases an operand.
                term = np.multiply(x, y, out=prod)
            except ValueError:
                raise ParameterError(
                    f"pointwise_mul_sum term {i}: {np.shape(x)} x {np.shape(y)} does "
                    f"not broadcast into {None if acc is None else acc.shape}"
                ) from None
            if acc is not None:
                acc += term
            elif term.shape[-2:] == (self.k, self.n):
                acc = term
            else:
                raise ParameterError(
                    f"pointwise_mul_sum folds (..., {self.k}, {self.n}) ring elements, "
                    f"got terms of shape {term.shape}: the trailing two axes are "
                    "the RNS residue and coefficient dimensions"
                )
        if acc is None:
            raise ParameterError("pointwise_mul_sum needs at least one term")
        return _mod_rows(acc, self._prime_list)

    # ------------------------------------------------------------------
    # domain conversion
    # ------------------------------------------------------------------
    def ntt(self, a: np.ndarray) -> np.ndarray:
        """Forward NTT of ``(..., k, n)`` residues, or of a bounded ``(...,
        1, n)`` row (:meth:`StackedNttPlan.forward`)."""
        return self.stacked.forward(a)

    def intt(self, a: np.ndarray) -> np.ndarray:
        return self.stacked.inverse(a)

    def intt_at(self, a: np.ndarray, indices: Sequence[int]) -> np.ndarray:
        """Coefficients ``indices`` of ``intt(a)``, ``(..., k,
        len(indices))``: one weighted reduction over the NTT slots each
        (:meth:`StackedNttPlan.inverse_coeff_weights`), O(n) per value."""
        weights = np.stack([self.stacked.inverse_coeff_weights(i) for i in indices], axis=-2)
        prod = a[..., None, :] * weights  # (..., k, len(indices), n), < p^2 < 2^62
        _mod_rows(prod.reshape(*prod.shape[:-2], -1), self._prime_list)
        return _mod_rows(np.add.reduce(prod, axis=-1), self._prime_list)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full ring multiplication of coefficient-domain operands."""
        return self.intt(self.pointwise_mul(self.ntt(a), self.ntt(b)))
