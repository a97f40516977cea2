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

from dataclasses import dataclass

import numpy as np

from repro.errors import KeyMismatchError, ParameterError
from repro.he.params import EncryptionParams
from repro.he.polyring import AuxBasis, PolyContext, aux_primes


class Context:
    """Runtime companion of an :class:`EncryptionParams` instance."""

    def __init__(self, params: EncryptionParams) -> None:
        self.params = params
        self.ring = PolyContext(params.poly_degree, params.coeff_primes)
        # NTT rows of x^0, x^1, ... grown on demand (at most poly_degree of
        # them) by :func:`repro.he.batching.pack_coefficients`.
        self._monomial_ntt: np.ndarray | None = None
        # NTT rows of x^(stride * p), one table per image stride, built by
        # :func:`repro.he.batching.stride_monomials`.
        self._stride_monomials: dict[int, np.ndarray] = {}
        # Built by the first ciphertext-ciphertext multiply, never here: the
        # hybrid pipelines do not multiply and must not pay for it.
        self._aux_basis: AuxBasis | None = None

    @property
    def aux_basis(self) -> AuxBasis:
        """The auxiliary RNS basis of :meth:`Evaluator.multiply`."""
        if self._aux_basis is None:
            params = self.params
            self._aux_basis = AuxBasis(
                self.ring,
                params.plain_modulus,
                aux_primes(params.poly_degree, params.coeff_primes, params.plain_modulus),
            )
        return self._aux_basis

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
        if other is not self and other.params != self.params:
            raise KeyMismatchError(
                "objects belong to different encryption contexts: "
                f"{self.params.name} vs {other.params.name}"
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
