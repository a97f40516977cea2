"""Encryption parameters and SEAL-2.1-style presets.

The paper configures SEAL 2.1 with the polynomial ``x^1024 + 1``, plaintext
modulus ``t = 4`` and a coefficient modulus picked by
``ChooserEvaluator::default_parameter_options().at(1024)``.
:func:`default_parameter_options` mirrors that API: it maps the polynomial
degree to a ready-made :class:`EncryptionParams`.

The quoted ``t = 4`` is reproduced verbatim in the ``paper_1024`` preset for
the micro-benchmarks, but a plaintext space of 4 values cannot hold CNN
activations, so the end-to-end pipelines use the ``functional_*`` presets
(documented per experiment in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ParameterError
from repro.he import modmath

#: Default error distribution width, matching SEAL's 3.19 rounded.
DEFAULT_NOISE_STDDEV = 3.2

#: Default relinearization decomposition bit count (base w = 2^16).
DEFAULT_DECOMPOSITION_BITS = 16

# Rough security table: minimum log2(q) that keeps >= 128-bit security for a
# ternary-secret RLWE instance of the given degree (homomorphicencryption.org
# standard, interpolated).  Used only for advisory estimates.
_SECURITY_128_MAX_LOGQ = {1024: 27, 2048: 54, 4096: 109, 8192: 218, 16384: 438}


@dataclass(frozen=True)
class EncryptionParams:
    """Immutable FV parameter set.

    Attributes:
        poly_degree: ring degree ``n`` (power of two); the ring is
            ``Z[x]/(x^n + 1)``.
        coeff_primes: word-size NTT primes whose product is ``q``.
        plain_modulus: plaintext modulus ``t``.
        noise_stddev: standard deviation of the error distribution chi.
        decomposition_bits: relinearization decomposes ciphertexts into
            base ``w = 2**decomposition_bits`` digits.
        name: preset label used in logs and benchmark tables.
    """

    poly_degree: int
    coeff_primes: tuple[int, ...]
    plain_modulus: int
    noise_stddev: float = DEFAULT_NOISE_STDDEV
    decomposition_bits: int = DEFAULT_DECOMPOSITION_BITS
    name: str = field(default="custom")

    def __post_init__(self) -> None:
        n = self.poly_degree
        if n < 8 or n & (n - 1):
            raise ParameterError(f"poly_degree must be a power of two >= 8, got {n}")
        if not self.coeff_primes:
            raise ParameterError("at least one coefficient prime is required")
        for p in self.coeff_primes:
            if not modmath.is_prime(p):
                raise ParameterError(f"coefficient modulus factor {p} is not prime")
            if (p - 1) % (2 * n):
                raise ParameterError(f"prime {p} is not NTT-friendly for degree {n}")
            if p >= 1 << 31:
                raise ParameterError(f"prime {p} exceeds the 31-bit word limit")
        if len(set(self.coeff_primes)) != len(self.coeff_primes):
            raise ParameterError("coefficient primes must be distinct")
        if self.plain_modulus < 2:
            raise ParameterError("plain_modulus must be >= 2")
        if self.plain_modulus >= self.coeff_modulus:
            raise ParameterError("plain_modulus must be smaller than coeff modulus")
        if self.noise_stddev <= 0:
            raise ParameterError("noise_stddev must be positive")
        if not 1 <= self.decomposition_bits <= 30:
            raise ParameterError("decomposition_bits must be in [1, 30]")

    @property
    def coeff_modulus(self) -> int:
        """The full coefficient modulus ``q``."""
        return modmath.product(self.coeff_primes)

    @property
    def delta(self) -> int:
        """The FV scaling factor ``Delta = floor(q / t)``."""
        return self.coeff_modulus // self.plain_modulus

    @property
    def decomposition_base(self) -> int:
        return 1 << self.decomposition_bits

    @property
    def decomposition_count(self) -> int:
        """Number of base-``w`` digits needed to cover ``q``."""
        bits = self.coeff_modulus.bit_length()
        return -(-bits // self.decomposition_bits)

    def estimated_security_bits(self) -> int:
        """Advisory security estimate (128 if within the standard table,
        proportionally less as log2(q) grows beyond it)."""
        max_logq = _SECURITY_128_MAX_LOGQ.get(self.poly_degree)
        if max_logq is None:
            return 0
        logq = self.coeff_modulus.bit_length()
        if logq <= max_logq:
            return 128
        return max(0, int(128 * max_logq / logq))

    def describe(self) -> str:
        return (
            f"{self.name}: n={self.poly_degree}, log2(q)="
            f"{self.coeff_modulus.bit_length()}, t={self.plain_modulus}, "
            f"sigma={self.noise_stddev}, w=2^{self.decomposition_bits}"
        )


def _preset(
    name: str,
    degree: int,
    prime_bits: int,
    prime_count: int,
    plain_modulus: int,
) -> EncryptionParams:
    primes = modmath.ntt_primes(prime_bits, degree, prime_count)
    return EncryptionParams(
        poly_degree=degree,
        coeff_primes=tuple(primes),
        plain_modulus=plain_modulus,
        name=name,
    )


@lru_cache(maxsize=None)
def default_parameter_options() -> dict[int, EncryptionParams]:
    """Presets keyed by polynomial degree, mirroring SEAL 2.1's
    ``ChooserEvaluator::default_parameter_options()``.

    ``.at(1024)`` reproduces the paper's configuration: ``x^1024 + 1`` with a
    ~48-bit coefficient modulus and the quoted plaintext modulus ``t = 4``.
    """
    return {
        1024: _preset("paper_1024", 1024, 24, 2, 4),
        2048: _preset("functional_2048", 2048, 30, 3, 65537),
        4096: _preset("functional_4096", 4096, 30, 4, 786433),
    }


@lru_cache(maxsize=None)
def small_parameter_options() -> dict[int, EncryptionParams]:
    """Reduced presets for fast unit tests (not secure, functionally exact)."""
    return {
        256: _preset("test_256", 256, 28, 2, 65537),
        512: _preset("test_512", 512, 28, 2, 12289),
    }


def paper_parameters() -> EncryptionParams:
    """The paper's quoted SEAL 2.1 configuration (Section V-A)."""
    return default_parameter_options()[1024]
