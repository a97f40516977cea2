"""Encryption context plus the Plaintext / Ciphertext value types.

A :class:`Context` binds an :class:`~repro.he.params.EncryptionParams` to the
RNS polynomial machinery and is required by every key generator, encryptor,
decryptor and evaluator.  Ciphertexts carry a reference to their context so
cross-context mixing is caught early.

Both value types are *batched*: a single numpy allocation can hold an entire
feature map of ciphertexts (leading axes before the polynomial axes), which
is what makes the pure-Python pipelines fast enough to run end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import KeyMismatchError, ParameterError
from repro.he.params import EncryptionParams
from repro.he.polyring import AuxBasis, PolyContext, _mod_rows, aux_primes

#: Coefficients (ciphertexts x n) per chunk of the RNS tensor product: 16
#: ciphertexts at n = 256, one at n = 4096.  Large enough to amortise the
#: numpy calls, small enough that a layer-sized batch leaves no heap behind.
_TENSOR_CHUNK_COEFFS = 1 << 12


class Context:
    """Runtime companion of an :class:`EncryptionParams` instance.

    Its ring and its ciphertext-multiply kernels (:meth:`tensor_product`,
    :meth:`scale_round`, :meth:`relin_digits`) are the library's one kernel
    set; :class:`repro.he.oracle.Context` is the same interface over the
    reference formulas.
    """

    #: The RNS arithmetic this context computes with.
    ring_type: type[PolyContext] = PolyContext

    def __init__(self, params: EncryptionParams) -> None:
        self.params = params
        self.ring = self.ring_type(params.poly_degree, params.coeff_primes)
        # NTT rows of x^(stride * p), one table per image stride, built by
        # :func:`repro.he.batching.stride_monomials`.
        self._stride_monomials: dict[int, np.ndarray] = {}
        # Built by the first ciphertext-ciphertext multiply, never here: the
        # hybrid pipelines do not multiply and must not pay for it.
        self._aux_basis: AuxBasis | None = None
        # ||L||_1 of the widest integer combination of tensor products one
        # rescale takes (1: a single product); see :meth:`hold_product_sums`.
        self._product_terms = 1

    @property
    def aux_basis(self) -> AuxBasis:
        """The auxiliary RNS basis of :meth:`Evaluator.multiply`."""
        if self._aux_basis is None:
            params = self.params
            self._aux_basis = AuxBasis(
                self.ring,
                params.plain_modulus,
                aux_primes(
                    params.poly_degree,
                    params.coeff_primes,
                    params.plain_modulus,
                    self._product_terms,
                ),
            )
        return self._aux_basis

    def hold_product_sums(self, terms: int) -> None:
        """Size the auxiliary basis for :meth:`scale_round` of any integer
        combination ``sum L_i d_i`` of tensor products with ``||L||_1 <=
        terms`` (DESIGN.md section 10).  The basis only grows; a wider one
        rescales a single product to the same bytes."""
        if terms > self._product_terms:
            self._product_terms = int(terms)
            self._aux_basis = None

    @property
    def product_primes(self) -> list[int]:
        """The primes a :class:`TensorProduct` has residues for: q's, then
        the auxiliary basis's."""
        return [*map(int, self.ring.primes), *self.aux_basis.primes]

    @property
    def poly_degree(self) -> int:
        return self.params.poly_degree

    @property
    def plain_modulus(self) -> int:
        return self.params.plain_modulus

    @property
    def coeff_modulus(self) -> int:
        return self.params.coeff_modulus

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Context({self.params.describe()})"

    def check_same(self, other: "Context") -> None:
        """Objects of two contexts mix iff their parameters are equal, so a
        ciphertext crosses between a context and its oracle unchanged."""
        if other is not self and other.params != self.params:
            raise KeyMismatchError(
                "objects belong to different encryption contexts: "
                f"{self.params.name} vs {other.params.name}"
            )

    def tensor_product(
        self, ct0: "Ciphertext", ct1: "Ciphertext", batch: tuple[int, ...]
    ) -> "TensorProduct":
        """The unscaled FV tensor product ``ct0 x ct1`` over ``batch``: its
        NTT-domain residues modulo q's primes and the auxiliary basis's,
        pointwise per prime (DESIGN.md section 10).

        The flattened batch is processed ``_TENSOR_CHUNK_COEFFS`` coefficients
        at a time into one preallocated output, so the transient is a few MiB
        whatever the batch; an operand is inverse-transformed and lifted once
        per chunk, and once in all when both factors are the same ciphertext.
        """
        ring = self.ring
        basis = self.aux_basis
        tail = (2, ring.k, ring.n)
        count = math.prod(batch)
        a = np.broadcast_to(ct0.data, (*batch, *tail)).reshape(count, *tail)
        b = np.broadcast_to(ct1.data, (*batch, *tail)).reshape(count, *tail)
        out = np.empty((count, 3, ring.k + len(basis.primes), ring.n), dtype=np.int64)
        step = max(1, _TENSOR_CHUNK_COEFFS // ring.n)

        def both_bases(data: np.ndarray, is_ntt: bool) -> tuple[np.ndarray, np.ndarray]:
            coeff = ring.intt(data) if is_ntt else data
            in_ring = data if is_ntt else ring.ntt(data)
            return in_ring, basis.plan.forward(basis.lift(coeff))

        for lo in range(0, count, step):
            x_ring, x_aux = both_bases(a[lo : lo + step], ct0.is_ntt)
            if ct1 is ct0:
                y_ring, y_aux = x_ring, x_aux
            else:
                y_ring, y_aux = both_bases(b[lo : lo + step], ct1.is_ntt)
            out[lo : lo + step, :, : ring.k] = _tensor_product(x_ring, y_ring, ring.primes)
            out[lo : lo + step, :, ring.k :] = _tensor_product(x_aux, y_aux, basis.primes)
        return TensorProduct(self, out.reshape(*batch, *out.shape[1:]), is_ntt=True)

    def scale_round(self, product: "TensorProduct") -> np.ndarray:
        """Coefficient-domain ``(*batch, 3, k, n)`` residues of ``round(t d /
        q)`` for the integers ``d`` of ``product``, chunked as
        :meth:`tensor_product`: inverse transforms over all its primes, then
        :meth:`AuxBasis.scale_round`, whose check prime refuses a ``d``
        outside the basis."""
        ring = self.ring
        basis = self.aux_basis
        k, rows, n = ring.k, product.data.shape[-2], ring.n
        count = product.batch_count
        d = product.data.reshape(count, 3, rows, n)
        out = np.empty((count, 3, k, n), dtype=np.int64)
        step = max(1, _TENSOR_CHUNK_COEFFS // n)
        for lo in range(0, count, step):
            d_ring, d_aux = d[lo : lo + step, :, :k], d[lo : lo + step, :, k:]
            if product.is_ntt:
                d_ring, d_aux = ring.intt(d_ring), basis.plan.inverse(d_aux)
            out[lo : lo + step] = basis.scale_round(d_ring, d_aux)
        return out.reshape(*product.batch_shape, 3, k, n)

    def relin_digits(self, c2: np.ndarray):
        """Base-``w`` digits of the ``[0, q)`` lift of ``c2``, low to high,
        by limb arithmetic on its mixed-radix form."""
        params = self.params
        radix = self.ring.radix
        yield from radix.limbs(
            radix.digits(c2), params.decomposition_bits, params.decomposition_count
        )


@dataclass
class Plaintext:
    """A batch of plaintext polynomials with coefficients in ``[0, t)``.

    Attributes:
        context: owning context.
        coeffs: int64 array of shape ``(..., n)``; leading axes batch many
            plaintexts.
    """

    context: Context
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=np.int64)
        n = self.context.poly_degree
        if self.coeffs.shape[-1] != n:
            raise ParameterError(
                f"plaintext degree {self.coeffs.shape[-1]} != ring degree {n}"
            )
        t = self.context.plain_modulus
        if (self.coeffs < 0).any() or (self.coeffs >= t).any():
            self.coeffs = self.coeffs % t

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.coeffs.shape[:-1]

    def signed_coeffs(self) -> np.ndarray:
        """Coefficients mapped to the centered range ``(-t/2, t/2]``."""
        t = self.context.plain_modulus
        return np.where(self.coeffs > t // 2, self.coeffs - t, self.coeffs)

    def byte_size(self) -> int:
        return self.coeffs.nbytes


@dataclass
class Ciphertext:
    """A batch of FV ciphertexts.

    Attributes:
        context: owning context.
        data: int64 RNS residues of shape ``(..., size, k, n)`` where ``size``
            is the number of polynomial components (2 for fresh ciphertexts,
            3 after an unrelinearized multiplication).
        is_ntt: True when the polynomials are stored in evaluation (NTT)
            domain -- the library's resting representation, because adds and
            plaintext multiplies are then pure pointwise numpy ops.
    """

    context: Context
    data: np.ndarray
    is_ntt: bool = True

    def __post_init__(self) -> None:
        if self.data.ndim < 3:
            raise ParameterError("ciphertext data must have shape (..., size, k, n)")
        ring = self.context.ring
        if self.data.shape[-1] != ring.n or self.data.shape[-2] != ring.k:
            raise ParameterError(
                f"ciphertext polynomial shape {self.data.shape[-2:]} does not match "
                f"ring (k={ring.k}, n={ring.n})"
            )

    @property
    def size(self) -> int:
        """Number of polynomial components (2 fresh, 3 post-multiply)."""
        return self.data.shape[-3]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.data.shape[:-3]

    @property
    def batch_count(self) -> int:
        count = 1
        for dim in self.batch_shape:
            count *= dim
        return count

    def to_ntt(self) -> "Ciphertext":
        if self.is_ntt:
            return self
        return Ciphertext(self.context, self.context.ring.ntt(self.data), is_ntt=True)

    def to_coeff(self) -> "Ciphertext":
        if not self.is_ntt:
            return self
        return Ciphertext(self.context, self.context.ring.intt(self.data), is_ntt=False)

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.context, self.data.copy(), self.is_ntt)

    def reshape(self, *batch_shape: int) -> "Ciphertext":
        """Reshape the batch axes, leaving the polynomial axes untouched."""
        tail = self.data.shape[-3:]
        return Ciphertext(self.context, self.data.reshape(*batch_shape, *tail), self.is_ntt)

    def __getitem__(self, index) -> "Ciphertext":
        """Slice along the batch axes."""
        if not self.batch_shape:
            raise IndexError("cannot index a scalar ciphertext")
        return Ciphertext(self.context, self.data[index], self.is_ntt)

    def byte_size(self) -> int:
        return self.data.nbytes


@dataclass
class TensorProduct:
    """A batch of unscaled FV tensor products ``d = ct0 x ct1``: the three
    exact integer polynomials before FV's ``round(t/q * .)``.

    Integer sums and integer-weighted contractions of products are products
    again (exact modulo every prime), so a linear map can run on ``d``
    itself and round once, after it (:meth:`Evaluator.rescale`); the context
    sizes its auxiliary basis for that map (:meth:`Context.hold_product_sums`).

    Attributes:
        context: owning context.
        data: int64 residues ``(..., 3, rows, n)`` modulo
            :attr:`Context.product_primes`, q's primes first.
        is_ntt: True when the residues are in evaluation (NTT) domain.
    """

    context: Context
    data: np.ndarray
    is_ntt: bool = True

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.data.shape[:-3]

    @property
    def batch_count(self) -> int:
        return math.prod(self.batch_shape)

    def reshape(self, *batch_shape: int) -> "TensorProduct":
        tail = self.data.shape[-3:]
        return TensorProduct(self.context, self.data.reshape(*batch_shape, *tail), self.is_ntt)

    def __getitem__(self, index) -> "TensorProduct":
        """Slice along the batch axes."""
        if not self.batch_shape:
            raise IndexError("cannot index a scalar tensor product")
        return TensorProduct(self.context, self.data[index], self.is_ntt)


def _tensor_product(x: np.ndarray, y: np.ndarray, primes) -> np.ndarray:
    """``(x0 y0, x0 y1 + x1 y0, x1 y1)`` pointwise modulo each prime, for
    NTT-domain pairs of shape ``(C, 2, K, n)``.  Residues are below ``2^31``,
    so the middle sum of two products stays below ``2^63`` unreduced; for a
    square (``y is x``) it is ``2 x0 x1``, one product doubled, and
    ``2 (2^31 - 1)^2 < 2^63`` as well."""
    out = np.empty((x.shape[0], 3, *x.shape[2:]), dtype=np.int64)
    np.multiply(x[:, 0], y[:, 0], out=out[:, 0])
    np.multiply(x[:, 0], y[:, 1], out=out[:, 1])
    if y is x:
        out[:, 1] += out[:, 1]
    else:
        out[:, 1] += x[:, 1] * y[:, 0]
    np.multiply(x[:, 1], y[:, 1], out=out[:, 2])
    return _mod_rows(out, primes)
