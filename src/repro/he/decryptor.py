"""FV decryption and noise-budget measurement (paper Section II-B).

``Decrypt(sk, ct)`` computes ``m = [round(t/q * [sum_i c_i s^i]_q)]_t``.
Size-2 and size-3 (unrelinearized) ciphertexts are both supported.

The *invariant noise budget* follows SEAL's definition: writing
``(t/q) * [ct(s)]_q = m + v (mod t)``, the budget is ``-log2(2 ||v||)`` bits;
decryption is correct while the budget is positive.

The rounding and the noise measurement are the context's
(:meth:`~repro.he.context.Context.round_to_plain`,
:meth:`~repro.he.context.Context.noise_max`): one RNS computation at every
width of ``q``, or the oracle's Python-int formulas under
:class:`repro.he.oracle.Context`.
"""

from __future__ import annotations

import math

import numpy as np

from repro import faults
from repro.errors import EncodingError, NoiseBudgetExhausted
from repro.he.context import Ciphertext, Context, Plaintext
from repro.he.keys import SecretKey


#: Budgets below this many bits count as overflowed (see ``is_decryptable``).
_DECRYPTABLE_MARGIN_BITS = 0.5


class Decryptor:
    """Decrypts ciphertexts with the secret key.

    Args:
        context: the encryption context.
        secret_key: the secret key ``s``.
    """

    def __init__(self, context: Context, secret_key: SecretKey) -> None:
        context.check_same(secret_key.context)
        self.context = context
        self.secret_key = secret_key

    def _dot_ntt(self, ct: Ciphertext) -> np.ndarray:
        """``[sum_i c_i s^i]_q`` as NTT-domain RNS residues ``(..., k, n)``."""
        self.context.check_same(ct.context)
        ring = self.context.ring
        ct = ct.to_ntt()
        acc = ct.data[..., 0, :, :]
        s_power = self.secret_key.s_ntt
        for i in range(1, ct.size):
            acc = ring.add(acc, ring.pointwise_mul(ct.data[..., i, :, :], s_power))
            if i + 1 < ct.size:
                s_power = ring.pointwise_mul(s_power, self.secret_key.s_ntt)
        return acc

    def decrypt_constants(self, ct: Ciphertext) -> np.ndarray:
        """Fast decrypt of *scalar-encoded* ciphertexts: centered int64
        constant coefficients, one O(n) reduction per value.

        Instead of a full inverse NTT (all ``n`` coefficients) this computes
        only coefficients ``{0, 1, n/2}`` of ``[ct(s)]_q`` and rounds them
        (:meth:`~repro.he.context.Context.decrypt_at`; the oracle decrypts
        the whole plaintext and reads them off it).
        Coefficient 0 is the payload; coefficients 1 and ``n/2`` are probes
        that must decode to 0 for any ScalarEncoder-produced value.  The
        values returned are bit-identical to
        ``ScalarEncoder.decode(decrypt(ct))``; the overflow check is
        probabilistic (two probe coefficients instead of all ``n - 1``, each
        nonzero with probability ``1 - 1/t`` once noise has overflowed).

        Raises:
            EncodingError: if a probe coefficient decodes nonzero -- the
                ciphertext does not hold scalar-encoded values (overflowed
                slot or different encoder).
        """
        if faults.is_armed():
            faults.inject(
                "he.noise.decrypt", NoiseBudgetExhausted, name="decrypt_constants"
            )
        n = self.context.ring.n
        probes = [0, 1, n // 2] if n > 1 else [0]
        coeffs = self.context.decrypt_at(self._dot_ntt(ct), probes)  # (..., len(probes))
        t = self.context.params.plain_modulus
        if coeffs[..., 1:].any():
            raise EncodingError(
                "plaintext has non-constant coefficients; it was not produced "
                "by ScalarEncoder (or the computation overflowed the slot)"
            )
        constants = coeffs[..., 0]
        return np.where(constants > t // 2, constants - t, constants)

    def decrypt(self, ct: Ciphertext, check_noise: bool = False) -> Plaintext:
        """Decrypt a (batched) ciphertext.

        Args:
            ct: ciphertext of any size >= 2.
            check_noise: when True, raise :class:`NoiseBudgetExhausted`
                instead of silently returning garbage if the noise overflowed.
        """
        if faults.is_armed():
            faults.inject("he.noise.decrypt", NoiseBudgetExhausted, name="decrypt")
        ring = self.context.ring
        coeff = ring.intt(self._dot_ntt(ct))  # [ct(s)]_q, feeds both uses
        if check_noise and self._noise_budget(coeff) < _DECRYPTABLE_MARGIN_BITS:
            raise NoiseBudgetExhausted(
                "ciphertext noise exceeds the decryptable threshold"
            )
        return Plaintext(self.context, self.context.round_to_plain(coeff))

    def is_decryptable(
        self, ct: Ciphertext, margin_bits: float = _DECRYPTABLE_MARGIN_BITS
    ) -> bool:
        """Statistical correctness test.

        Once noise overflows, the measured residue is uniform and lands
        within a hair of the q/2 ceiling with overwhelming probability, so a
        budget below ``margin_bits`` is treated as overflowed.  (A ciphertext
        whose *true* budget is under half a bit is one operation from death
        anyway.)
        """
        return self.invariant_noise_budget(ct) >= margin_bits

    def _noise_budget(self, coeff: np.ndarray) -> float:
        q = self.context.params.coeff_modulus
        worst = self.context.noise_max(coeff)
        if worst == 0:
            return float(q.bit_length() - 1)
        budget = math.log2(q) - math.log2(worst) - 1.0
        return max(0.0, budget)

    def invariant_noise_budget(self, ct: Ciphertext) -> float:
        """Remaining noise budget in bits (0 when decryption would fail).

        For batched ciphertexts the *minimum* budget over the batch is
        returned, since one overflowing element already corrupts results.
        """
        return self._noise_budget(self.context.ring.intt(self._dot_ntt(ct)))

