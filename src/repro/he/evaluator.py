"""Homomorphic operations: Add, Multiply, plain ops and relinearization.

Implements the paper's Section II-B evaluation algorithms:

* ``Add(ct0, ct1)``: component-wise sum.
* ``Multiply(ct0, ct1)``: FV tensor product -- the three cross products are
  *exact* integer negacyclic convolutions, scaled by ``t/q`` with true
  rounding, yielding a size-3 ciphertext.  It is two exact halves,
  :meth:`Evaluator.tensor_product` (the unscaled product ``d``) and
  :meth:`Evaluator.rescale` (``round(t d / q)``), so a caller can run an
  integer linear map on ``d`` between them and round once.  They never
  leave int64: the product runs pointwise per prime over ``q``'s primes and
  the context's auxiliary basis (:class:`~repro.he.polyring.AuxBasis`) and
  the division is an exact RNS base conversion with a checked
  post-condition.  The oracle context (:mod:`repro.he.oracle`) computes the
  same integers in Python ints (``convolve_exact``, CRT,
  ``scale_and_round``).
* ``relinearize``: base-``w`` digit decomposition of ``c2`` against the
  evaluation keys, shrinking size 3 back to 2.  The digits come off the
  mixed-radix form of ``c2`` by limb arithmetic (the oracle: off its
  Python-int lift by shifts).

Every formula that differs between the two is a method of the evaluator's
context or its ring, so the evaluator itself has one code path.

All operations accept batched ciphertexts (leading axes) and most are pure
pointwise numpy work because ciphertexts rest in NTT domain.

The evaluator optionally records operation counts in an
:class:`OperationCounter`; the Fig. 4 benchmark uses these to report the
``C x P`` / ``C + C`` totals the paper plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import KeyMismatchError, ParameterError
from repro.he.context import _TENSOR_CHUNK_COEFFS, Ciphertext, Context, Plaintext, TensorProduct
from repro.he.keys import RelinKeys
from repro.he.polyring import _mod_rows


@dataclass
class OperationCounter:
    """Tally of scalar homomorphic operations (batch-expanded)."""

    counts: dict[str, int] = field(default_factory=dict)

    def record(self, op: str, amount: int = 1) -> None:
        self.counts[op] = self.counts.get(op, 0) + amount

    def get(self, op: str) -> int:
        return self.counts.get(op, 0)

    def reset(self) -> None:
        self.counts.clear()


@dataclass
class PlainOperand:
    """A plaintext pre-transformed to NTT domain for repeated multiplication.

    The CNN pipelines encode model weights once (paper Section IV-B) and
    multiply them into many ciphertexts; caching the NTT form makes each
    reuse a single pointwise product.  A ``Delta * m`` operand may rest in the
    coefficient domain instead (``is_ntt=False``), for adding into
    ciphertexts that arrive there (:meth:`Evaluator.add_plain_operand`).
    """

    context: Context
    data: np.ndarray  # shape (..., k, n)
    is_ntt: bool = True

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.data.shape[:-2]


class Evaluator:
    """Performs homomorphic computation within one context."""

    def __init__(self, context: Context, counter: OperationCounter | None = None) -> None:
        self.context = context
        self.counter = counter

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _record(self, op: str, ct: Ciphertext) -> None:
        if self.counter is not None:
            self.counter.record(op, max(1, ct.batch_count))

    def _check(self, *objects) -> None:
        for obj in objects:
            self.context.check_same(obj.context)

    def transform_plain(self, plain: Plaintext) -> PlainOperand:
        """Precompute the NTT form of a plaintext for plain multiplication.

        Coefficients are centered into ``(-t/2, t/2]`` first, which keeps the
        noise growth of ``multiply_plain`` proportional to the *signed*
        magnitude of the encoded values.
        """
        self._check(plain)
        ring = self.context.ring
        return PlainOperand(self.context, ring.ntt(ring.from_signed_small(plain.signed_coeffs())))

    def transform_plain_delta(self, plain: Plaintext) -> PlainOperand:
        """Precompute the NTT form of ``Delta * plain`` -- the exact value
        :meth:`add_plain` adds into the ciphertext body.

        Layer bias constants are the same every inference, so the encoded
        weight tables precompute this operand once instead of re-encoding and
        re-transforming an ``np.full(...)`` plaintext per call; adding the
        cached operand via :meth:`add_plain_operand` is bit-identical to
        :meth:`add_plain` on the same values.
        """
        self._check(plain)
        ring = self.context.ring
        delta_m = ring.ntt(
            ring.mul_scalar(ring.from_int_coeffs(plain.coeffs), self.context.params.delta)
        )
        return PlainOperand(self.context, delta_m)

    # ------------------------------------------------------------------
    # additive operations
    # ------------------------------------------------------------------
    def add(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """``Add(ct0, ct1)``; operands of different size are zero-padded."""
        self._check(ct0, ct1)
        _broadcast_batch("add", ct0, ct1)
        ct0, ct1 = ct0.to_ntt(), ct1.to_ntt()
        a, b = ct0.data, ct1.data
        if ct0.size != ct1.size:
            if ct0.size < ct1.size:
                a, b = b, a
            pad = a.shape[-3] - b.shape[-3]
            pad_block = np.zeros((*b.shape[:-3], pad, *b.shape[-2:]), dtype=np.int64)
            b = np.concatenate([b, pad_block], axis=-3)
        result = Ciphertext(self.context, self.context.ring.add(a, b), is_ntt=True)
        self._record("ct_add", result)
        return result

    def sub(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        return self.add(ct0, self.negate(ct1))

    def negate(self, ct: Ciphertext) -> Ciphertext:
        self._check(ct)
        return Ciphertext(ct.context, self.context.ring.neg(ct.data), ct.is_ntt)

    def add_plain(self, ct: Ciphertext, plain: Plaintext) -> Ciphertext:
        """Add ``Delta * plain`` into the ciphertext body."""
        self._check(ct, plain)
        ring = self.context.ring
        ct = ct.to_ntt()
        delta_m = ring.ntt(
            ring.mul_scalar(ring.from_int_coeffs(plain.coeffs), self.context.params.delta)
        )
        data = ct.data.copy()
        data[..., 0, :, :] = ring.add(data[..., 0, :, :], delta_m)
        result = Ciphertext(self.context, data, is_ntt=True)
        self._record("plain_add", result)
        return result

    def add_plain_operand(self, ct: Ciphertext, operand: PlainOperand) -> Ciphertext:
        """Add a precomputed ``Delta * m`` operand (broadcast over the batch)
        into the ciphertext body, in the operand's domain; see
        :meth:`transform_plain_delta`."""
        self._check(ct, operand)
        ring = self.context.ring
        ct = ct.to_ntt() if operand.is_ntt else ct.to_coeff()
        data = ct.data.copy()
        data[..., 0, :, :] = ring.add(data[..., 0, :, :], operand.data)
        result = Ciphertext(self.context, data, operand.is_ntt)
        self._record("plain_add", result)
        return result

    def add_many(self, cts: list[Ciphertext]) -> Ciphertext:
        """The sum of ``cts``, in their domain when they share one (a sum is
        the same residues either side of the transform), else in NTT; a
        list of :class:`TensorProduct` sums to a product."""
        if not cts:
            raise ParameterError("add_many requires at least one ciphertext")
        if len(cts) == 1:
            return cts[0]
        first = cts[0]
        if isinstance(first, TensorProduct):
            return self._add_products(cts)
        uniform = all(
            ct.size == first.size
            and ct.batch_shape == first.batch_shape
            and ct.is_ntt == first.is_ntt
            for ct in cts[1:]
        )
        if uniform:
            # One stacked reduction (and one trailing %) instead of a
            # sequential O(len) fold of add() allocations; the op tally
            # matches the fold exactly.
            self._check(*cts)
            stacked = np.stack([ct.data for ct in cts])
            result = Ciphertext(
                self.context, self.context.ring.reduce_sum(stacked, axis=0), first.is_ntt
            )
            if self.counter is not None:
                self.counter.record("ct_add", (len(cts) - 1) * max(1, result.batch_count))
            return result
        acc = cts[0]
        for ct in cts[1:]:
            acc = self.add(acc, ct)
        return acc

    def _add_products(self, products: list[TensorProduct]) -> TensorProduct:
        """:meth:`add_many` of same-shape, same-domain unscaled products,
        accumulated term by term (no stacked copy of the terms) and reduced
        once: a residue is below ``2^31``, so any list that fits in memory
        sums exactly in int64."""
        self._check(*products)
        first = products[0]
        for product in products[1:]:
            if product.data.shape != first.data.shape or product.is_ntt != first.is_ntt:
                raise ParameterError(
                    "add_many sums tensor products of one shape and domain, got "
                    f"{first.data.shape} and {product.data.shape}"
                )
        acc = first.data + products[1].data
        for product in products[2:]:
            acc += product.data
        result = TensorProduct(
            self.context, _mod_rows(acc, self.context.product_primes), first.is_ntt
        )
        if self.counter is not None:
            self.counter.record("ct_add", (len(products) - 1) * max(1, result.batch_count))
        return result

    def sum_batch(self, ct: Ciphertext, axis: int = 0) -> Ciphertext:
        """Sum a batched ciphertext along one batch axis (C + C reduction).

        Equivalent to folding :meth:`add` over that axis but performed as a
        single numpy reduction.
        """
        self._check(ct)
        if not ct.batch_shape:
            raise ParameterError("sum_batch requires a batched ciphertext")
        axis = axis % len(ct.batch_shape)
        ct = ct.to_ntt()
        summed = self.context.ring.reduce_sum(ct.data, axis=axis)
        if self.counter is not None:
            folds = ct.batch_shape[axis] - 1
            lanes = ct.batch_count // max(1, ct.batch_shape[axis])
            self.counter.record("ct_add", folds * max(1, lanes))
        return Ciphertext(self.context, summed, is_ntt=True)

    # ------------------------------------------------------------------
    # multiplicative operations
    # ------------------------------------------------------------------
    def multiply_plain(self, ct: Ciphertext, plain: PlainOperand | Plaintext) -> Ciphertext:
        """Ciphertext x plaintext product (the paper's ``C x P``)."""
        if isinstance(plain, Plaintext):
            plain = self.transform_plain(plain)
        self._check(ct, plain)
        ring = self.context.ring
        ct = ct.to_ntt()
        operand = plain.data
        if plain.batch_shape:
            operand = operand[..., None, :, :]  # broadcast over ct components
        result = Ciphertext(self.context, ring.pointwise_mul(ct.data, operand), is_ntt=True)
        self._record("ct_plain_mul", result)
        return result

    def sum_products(self, rows, operands, out: np.ndarray | None = None) -> Ciphertext:
        """``sum_i rows[i] x operands[i]``: NTT-domain ciphertext data rows
        times NTT-domain plaintext rows, folded by
        :meth:`PolyContext.pointwise_mul_sum` where the rows lie (they need
        not share a buffer) and tallied as the ``C x P`` products and
        ``C + C`` additions it replaces.  ``out``, a zeroed array of the
        result's shape, receives the sum in place (its ``start``)."""
        data = self.context.ring.pointwise_mul_sum(rows, operands, start=out)
        result = Ciphertext(self.context, data, is_ntt=True)
        if self.counter is not None:
            lanes = max(1, result.batch_count)
            self.counter.record("ct_plain_mul", len(rows) * lanes)
            self.counter.record("ct_add", (len(rows) - 1) * lanes)
        return result

    def multiply(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """``Multiply(ct0, ct1)``: exact FV tensor product, size 2x2 -> 3 --
        :meth:`rescale` of :meth:`tensor_product`, composed a chunk of the
        batch at a time (the context's own chunk), so only one chunk's
        unscaled product, which also spans the auxiliary basis, is alive."""
        batch = self._product_batch(ct0, ct1)
        context, count, tail = self.context, math.prod(batch), ct0.data.shape[-3:]
        a, b = (np.broadcast_to(c.data, (*batch, *tail)).reshape(count, *tail) for c in (ct0, ct1))
        out = np.empty((count, 3, *tail[1:]), dtype=np.int64)
        step = max(1, _TENSOR_CHUNK_COEFFS // context.poly_degree)
        for lo in range(0, count, step):
            x = Ciphertext(context, a[lo : lo + step], ct0.is_ntt)
            y = x if ct1 is ct0 else Ciphertext(context, b[lo : lo + step], ct1.is_ntt)
            product = context.tensor_product(x, y, x.batch_shape)
            out[lo : lo + step] = context.scale_round(product)
        result = Ciphertext(context, out.reshape(*batch, *out.shape[1:]), is_ntt=False)
        self._record("ct_mul", result)
        return result

    def square(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic squaring (CryptoNets' activation substitute):
        :meth:`multiply` with both factors the same ciphertext, which it
        inverse-transforms (and, in the RNS kernel, lifts) once."""
        return self.multiply(ct, ct)

    def tensor_product(self, ct0: Ciphertext, ct1: Ciphertext) -> TensorProduct:
        """The unscaled half of :meth:`multiply`: the exact products ``d =
        ct0 x ct1`` (:meth:`Context.tensor_product`), tallied as its
        ``ct_mul``."""
        product = self.context.tensor_product(ct0, ct1, self._product_batch(ct0, ct1))
        self._record("ct_mul", product)
        return product

    def _product_batch(self, ct0: Ciphertext, ct1: Ciphertext) -> tuple[int, ...]:
        """The batch a ciphertext product covers, after the operand checks."""
        self._check(ct0, ct1)
        if ct0.size != 2 or ct1.size != 2:
            raise ParameterError(
                "multiply expects size-2 operands; relinearize first "
                f"(got sizes {ct0.size} and {ct1.size})"
            )
        return _broadcast_batch("multiply", ct0, ct1)

    def rescale(self, product: TensorProduct) -> Ciphertext:
        """The rounding half of :meth:`multiply`: the size-3,
        coefficient-domain ciphertext ``round(t d / q)``
        (:meth:`Context.scale_round`) of a product, or of an integer
        combination of products the context's basis was sized for.

        Raises:
            ParameterError: the product's residues are not over the
                context's :attr:`~Context.product_primes`, or ``d`` left the
                auxiliary basis (its check prime disagrees).
        """
        self._check(product)
        rows = len(self.context.product_primes)
        if product.data.shape[-3:-1] != (3, rows):
            raise ParameterError(
                f"rescale takes (..., 3, {rows}, n) product residues, got "
                f"{product.data.shape}"
            )
        return Ciphertext(self.context, self.context.scale_round(product), is_ntt=False)

    def relinearize(self, ct: Ciphertext, relin_keys: RelinKeys) -> Ciphertext:
        """Reduce a size-3 ciphertext back to size 2 using evaluation keys."""
        self._check(ct, relin_keys)
        if ct.size == 2:
            return ct
        if ct.size != 3:
            raise ParameterError(f"relinearize supports size-3 ciphertexts, got {ct.size}")
        params = self.context.params
        if relin_keys.decomposition_bits != params.decomposition_bits:
            raise KeyMismatchError("relinearization keys use a different base w")
        if relin_keys.count != params.decomposition_count:
            raise KeyMismatchError(
                f"relinearization keys cover {relin_keys.count} digit positions, "
                f"q needs {params.decomposition_count}"
            )
        ring = self.context.ring
        coeff = ct.to_coeff().data
        # The digit x key inner product is one multiply-accumulate over both
        # key components, started from the transformed (c0, c1).  The digits
        # are transformed one at a time as it consumes them: stacking the
        # transforms is no faster and multiplies the transient by their
        # count.  A digit is the same small integers under every prime, so
        # the transform takes it as one (..., 1, n) row.
        digits = (
            ring.ntt(d[..., None, None, :])
            for d in self.context.relin_digits(coeff[..., 2, :, :])
        )
        data = ring.pointwise_mul_sum(
            digits, relin_keys.stacked_ntt, start=ring.ntt(coeff[..., :2, :, :])
        )
        result = Ciphertext(self.context, data, is_ntt=True)
        self._record("relinearize", result)
        return result


def _broadcast_batch(op: str, ct0: Ciphertext, ct1: Ciphertext) -> tuple[int, ...]:
    """The common batch shape of two operands, or a typed refusal."""
    try:
        return np.broadcast_shapes(ct0.batch_shape, ct1.batch_shape)
    except ValueError:
        raise ParameterError(
            f"{op}: batch shapes {ct0.batch_shape} and {ct1.batch_shape} do not broadcast"
        ) from None
