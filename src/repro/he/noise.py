"""Theoretical noise-growth estimates for FV circuits.

The hybrid framework's central noise argument (paper Sections III-A / IV-E)
is that every SGX refresh resets ciphertext noise to fresh-encryption level,
whereas the pure-HE baseline must survive the full circuit depth and pay for
relinearization.  This module provides back-of-envelope estimates, in bits of
invariant-noise budget, that the tests cross-check against the exact budgets
measured by :meth:`repro.he.decryptor.Decryptor.invariant_noise_budget`.

The formulas follow the FV noise analysis (Fan & Vercauteren 2012) in
simplified infinity-norm form; they are upper bounds, not exact predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.he.params import EncryptionParams


@dataclass
class NoiseEstimator:
    """Estimates invariant-noise budgets for a parameter set."""

    params: EncryptionParams

    @property
    def _log_q(self) -> float:
        return math.log2(self.params.coeff_modulus)

    def fresh_budget(self) -> float:
        """Budget of a fresh public-key encryption, in bits.

        Fresh invariant noise is about ``t * (2 n B + B) / q`` for noise bound
        ``B = 6 sigma``; the budget is ``-log2(2 ||v||)``.
        """
        n = self.params.poly_degree
        bound = 6.0 * self.params.noise_stddev
        noise = self.params.plain_modulus * bound * (2.0 * n + 1.0)
        return max(0.0, self._log_q - math.log2(2.0 * noise))

    def plain_multiply_cost(self, plain_norm: float, plain_degree: int | None = None) -> float:
        """Budget bits consumed by one ``multiply_plain``.

        Multiplying by a plaintext with ``d`` nonzero coefficients of
        magnitude at most ``||p||`` scales the invariant noise by about
        ``d * ||p||``.
        """
        d = plain_degree if plain_degree is not None else 1
        return math.log2(max(2.0, d * plain_norm))

    def add_cost(self, terms: int) -> float:
        """Budget bits consumed by summing ``terms`` ciphertexts."""
        return math.log2(max(1, terms))

    def multiply_cost(self) -> float:
        """Budget bits consumed by one ciphertext-ciphertext multiply.

        Dominated by ``t * n * (noise growth)``; in budget terms roughly
        ``log2(t) + log2(n) + constant``.
        """
        return (
            math.log2(self.params.plain_modulus)
            + math.log2(self.params.poly_degree)
            + 3.0
        )

    def relinearize_cost(self) -> float:
        """Budget bits consumed by one relinearization.

        Additive noise ``~ L * w * n * B`` relative to the post-multiply
        noise; usually small next to :meth:`multiply_cost`.
        """
        added = (
            self.params.decomposition_count
            * self.params.decomposition_base
            * self.params.poly_degree
            * 6.0
            * self.params.noise_stddev
            * self.params.plain_modulus
        )
        remaining_after = self._log_q - math.log2(2.0 * added)
        return max(0.0, self.fresh_budget() - remaining_after)

    def budget_after(
        self,
        multiplies: int = 0,
        plain_multiplies: int = 0,
        plain_norm: float = 1.0,
        additions: int = 0,
    ) -> float:
        """Estimated remaining budget after a sequence of operations."""
        budget = self.fresh_budget()
        budget -= multiplies * (self.multiply_cost() + self.relinearize_cost())
        budget -= plain_multiplies * self.plain_multiply_cost(plain_norm)
        if additions:
            budget -= self.add_cost(additions)
        return budget
