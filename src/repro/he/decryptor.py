"""FV decryption and noise-budget measurement (paper Section II-B).

``Decrypt(sk, ct)`` computes ``m = [round(t/q * [sum_i c_i s^i]_q)]_t``.
Size-2 and size-3 (unrelinearized) ciphertexts are both supported.

The *invariant noise budget* follows SEAL's definition: writing
``(t/q) * [ct(s)]_q = m + v (mod t)``, the budget is ``-log2(2 ||v||)`` bits;
decryption is correct while the budget is positive.
"""

from __future__ import annotations

import math

import numpy as np

from repro import faults
from repro.errors import EncodingError, NoiseBudgetExhausted
from repro.he.context import Ciphertext, Context, Plaintext
from repro.he.keys import SecretKey
from repro.he.polyring import SCALE_ROUND_MAX_NUMER, _mod_rows


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

    def _use_int64(self) -> bool:
        """Whether decrypt arithmetic stays in machine words: the ring's
        int64 lift (``q < 2^62``, not the oracle's) and ``t < 2^50``
        (rounding kernel)."""
        params = self.context.params
        return (
            self.context.ring.int64_lift
            and params.plain_modulus < SCALE_ROUND_MAX_NUMER
        )

    def _round_to_plain(self, centered: np.ndarray) -> np.ndarray:
        """FV rounding ``[round(t/q * v)]_t`` of centered coefficients, as
        int64 in ``[0, t)``.

        The int64 path takes :meth:`PolyContext.scale_round_int64`; otherwise
        the object-dtype formula runs in Python ints, exact for any ``q`` and
        ``t`` -- the oracle the kernel is tested against.
        """
        params = self.context.params
        t, q = params.plain_modulus, params.coeff_modulus
        if self._use_int64():
            rounded = self.context.ring.scale_round_int64(centered, t)
            rounded %= t
            return rounded
        scaled = centered.astype(object) * t
        half = q // 2
        rounded = np.where(
            scaled >= 0, (scaled + half) // q, -((-scaled + half) // q)
        )
        return (rounded % t).astype(np.int64)

    def decrypt_constants(self, ct: Ciphertext) -> np.ndarray:
        """Fast decrypt of *scalar-encoded* ciphertexts: centered int64
        constant coefficients, one O(n) reduction per value.

        Instead of a full inverse NTT (all ``n`` coefficients) this computes
        only coefficients ``{0, 1, n/2}`` of ``[ct(s)]_q`` as
        weighted sums over the NTT slots
        (:meth:`~repro.he.ntt.StackedNttPlan.inverse_coeff_weights`), lifts
        them with the int64 Garner CRT and applies the exact FV rounding.
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
        ring = self.context.ring
        acc = self._dot_ntt(ct)
        probes = [0, 1, ring.n // 2] if ring.n > 1 else [0]
        weights = np.stack(
            [ring.stacked.inverse_coeff_weights(i) for i in probes], axis=-2
        )  # (k, len(probes), n)
        prod = acc[..., None, :] * weights  # (..., k, probes, n), < p^2 < 2^62
        _mod_rows(prod.reshape(*prod.shape[:-2], -1), ring.primes)
        residues = _mod_rows(np.add.reduce(prod, axis=-1), ring.primes)
        centered = ring.to_int64_centered(residues)  # (..., len(probes))
        coeffs = self._round_to_plain(centered)
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
        if self._use_int64():
            centered = ring.to_int64_centered(coeff)
        else:
            centered = ring.to_bigint_centered(coeff)
        return Plaintext(self.context, self._round_to_plain(centered))

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

    def _worst_noise(self, coeff: np.ndarray) -> int:
        """``max |[t * ct(s)]_q|`` from coefficient-domain ``[ct(s)]_q``."""
        params = self.context.params
        q = params.coeff_modulus
        ring = self.context.ring
        if self._use_int64():
            # [t * ct(s)]_q computed in RNS (scalar multiply per prime) and
            # lifted with the int64 Garner kernel: identical to the object
            # path's (raw * t) % q, without any bigint arithmetic.
            centered = ring.to_int64_centered(
                ring.mul_scalar(coeff, params.plain_modulus)
            )
            return int(np.abs(centered).max()) if centered.size else 0
        raw = ring.to_bigint_centered(coeff)
        residue = (raw * params.plain_modulus) % q
        centered = np.where(residue > q // 2, residue - q, residue)
        return int(np.abs(centered).max()) if centered.size else 0

    def _noise_budget(self, coeff: np.ndarray) -> float:
        q = self.context.params.coeff_modulus
        worst = self._worst_noise(coeff)
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


def decrypt_scalar_values(decryptor: Decryptor, encoder, ct: Ciphertext) -> np.ndarray:
    """Decrypt + decode a scalar-encoded ciphertext.

    On a ring with the int64 lift this takes the O(n)-per-value
    :meth:`Decryptor.decrypt_constants` shortcut; otherwise (a wide ``q``, or
    the oracle's ring) it runs ``encoder.decode(decryptor.decrypt(ct))``.
    For a scalar-encoded plaintext both return the same centered int64
    values.  They differ on a non-constant one: the full decode raises
    :class:`~repro.errors.EncodingError` for any non-constant coefficient,
    the shortcut only when probe coefficient ``1`` or ``n/2`` is nonzero --
    the one documented divergence between the oracle and production.  The
    pipelines' decrypt stages and the enclave's trusted decrypt both
    dispatch here, so the choice is made once.
    """
    if decryptor.context.ring.int64_lift:
        return decryptor.decrypt_constants(ct)
    return encoder.decode(decryptor.decrypt(ct))
