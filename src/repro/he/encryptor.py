"""FV encryption (paper Section II-B, ``Encrypt``).

``Encrypt(pk, m)``: sample ``u`` ternary and ``e1, e2`` from chi, output::

    ct = (c0, c1) = ([p0 u + e1 + Delta m]_q, [p1 u + e2]_q)

The encryptor is batched: a plaintext with leading batch axes produces one
ciphertext object holding independently randomized encryptions for every
element, in a handful of vectorized numpy calls.
"""

from __future__ import annotations

import numpy as np

from repro.he.context import Ciphertext, Context, Plaintext
from repro.he.keys import PublicKey, SecretKey


def add_delta_m(context: Context, noise: np.ndarray, plain: Plaintext) -> np.ndarray:
    """``[noise + Delta * m]_q`` for freshly sampled ``noise`` residues
    (``(..., k_rns, n)``, overwritten on the constant path).

    A scalar encoding populates the constant coefficient only, so
    ``Delta * m`` is one residue column and the full ``(..., k_rns, n)``
    product is never built; every other column of ``noise`` would have zero
    added, which leaves canonical residues untouched.  Any plaintext with a
    higher coefficient set takes the full-array formula.  Same bytes either
    way.
    """
    ring = context.ring
    delta = context.params.delta
    if plain.coeffs[..., 1:].any():
        return ring.add(noise, ring.mul_scalar(ring.from_int_coeffs(plain.coeffs), delta))
    p_col = ring.primes.reshape(-1, 1)
    const = plain.coeffs[..., :1][..., None, :] % p_col
    delta_m0 = (const * ring.scalar_residues(delta)) % p_col
    noise[..., :1] = ring.add(noise[..., :1], delta_m0)
    return noise


class Encryptor:
    """Encrypts plaintexts under a public key.

    Args:
        context: the encryption context.
        public_key: target public key.
        rng: numpy Generator for the encryption randomness.
    """

    def __init__(
        self,
        context: Context,
        public_key: PublicKey,
        rng: np.random.Generator | None = None,
    ) -> None:
        context.check_same(public_key.context)
        self.context = context
        self.public_key = public_key
        self.rng = rng if rng is not None else np.random.default_rng()

    def encrypt(self, plain: Plaintext) -> Ciphertext:
        """Encrypt a (batched) plaintext into a fresh size-2 ciphertext."""
        self.context.check_same(plain.context)
        ring = self.context.ring
        params = self.context.params
        batch = plain.batch_shape
        ternary = ring.sample_ternary(self.rng, *batch)
        e1 = ring.sample_noise(self.rng, params.noise_stddev, *batch)
        e2 = ring.sample_noise(self.rng, params.noise_stddev, *batch)
        # One stacked transform instead of one each: same values, fuller
        # row blocks.
        u, t1, t2 = ring.ntt(np.stack([ternary, add_delta_m(self.context, e1, plain), e2]))
        c0 = ring.add(ring.pointwise_mul(self.public_key.p0_ntt, u), t1)
        c1 = ring.add(ring.pointwise_mul(self.public_key.p1_ntt, u), t2)
        data = np.stack([c0, c1], axis=-3)
        return Ciphertext(self.context, data, is_ntt=True)

    #: Alias of :meth:`encrypt`, which picks the constant-coefficient path
    #: itself; tooling binds this name (``benchmarks/e2e/spans.py``).
    encrypt_scalar = encrypt

    def encrypt_zero(self, *batch_shape: int) -> Ciphertext:
        """Fresh encryption of zero (useful for refresh and padding)."""
        zeros = Plaintext(
            self.context,
            np.zeros((*batch_shape, self.context.poly_degree), dtype=np.int64),
        )
        return self.encrypt(zeros)


class SymmetricEncryptor:
    """Secret-key encryption: ``ct = ([-(a s + e) + Delta m]_q, a)``.

    Produces slightly less noisy ciphertexts than public-key encryption.
    The enclave uses this form when re-encrypting intermediate CNN state,
    since it holds the secret key anyway (paper Section IV-D).

    ``a`` is drawn uniform directly in the NTT domain, as SEAL does: the
    transform is a bijection of ``Z_p^n`` for each prime, so the draw is
    just as uniform there, and one forward transform (of ``e + Delta m``)
    remains per ciphertext instead of two.  The RNG draws are those of a
    coefficient-domain draw, in the same order, and ``c0 + c1 s = NTT(e +
    Delta m)`` does not involve ``a``, so every decryption and noise budget
    equals that form's; only the ciphertext bytes differ.
    """

    def __init__(
        self,
        context: Context,
        secret_key: SecretKey,
        rng: np.random.Generator | None = None,
    ) -> None:
        context.check_same(secret_key.context)
        self.context = context
        self.secret_key = secret_key
        self.rng = rng if rng is not None else np.random.default_rng()

    def encrypt(self, plain: Plaintext) -> Ciphertext:
        self.context.check_same(plain.context)
        ring = self.context.ring
        params = self.context.params
        batch = plain.batch_shape
        data = np.empty((*batch, 2, ring.k, ring.n), dtype=np.int64)
        a = data[..., 1, :, :]
        a[...] = ring.sample_uniform(self.rng, *batch)  # already NTT residues
        e = ring.sample_noise(self.rng, params.noise_stddev, *batch)
        masked = ring.ntt(add_delta_m(self.context, e, plain))
        data[..., 0, :, :] = ring.sub(masked, ring.pointwise_mul(a, self.secret_key.s_ntt))
        return Ciphertext(self.context, data, is_ntt=True)
