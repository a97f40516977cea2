"""FV key material and key generation (paper Section II-B).

Implements ``SecretKeyGen``, ``PublicKeyGen`` and ``EvaluationKeyGen``:

* ``SecretKeyGen(1^lambda)``: sample ternary ``s``.
* ``PublicKeyGen(sk)``: sample ``a`` uniform in R_q, ``e`` from chi, output
  ``pk = ([-(a s + e)]_q, a)``.
* ``EvaluationKeyGen(sk, w)``: for each base-``w`` digit position ``i``,
  output ``([-(a_i s + e_i) + w^i s^2]_q, a_i)`` -- the relinearization keys.

All key polynomials are stored in NTT domain so that key-dependent products
(encryption, decryption, relinearization) are pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.he.context import Context


@dataclass
class SecretKey:
    """The ternary secret ``s`` (NTT domain)."""

    context: Context
    s_ntt: np.ndarray

    def byte_size(self) -> int:
        return self.s_ntt.nbytes


@dataclass
class PublicKey:
    """``pk = (p0, p1) = ([-(a s + e)]_q, a)`` (NTT domain)."""

    context: Context
    p0_ntt: np.ndarray
    p1_ntt: np.ndarray

    def byte_size(self) -> int:
        return self.p0_ntt.nbytes + self.p1_ntt.nbytes


@dataclass
class RelinKeys:
    """Relinearization (evaluation) keys.

    ``key0[i], key1[i]`` hold the pair for digit position ``i`` of the
    base-``w`` decomposition, both in NTT domain with shape ``(L, k, n)``.
    Both are views of ``stacked_ntt``, ``(L, 2, k, n)``: row ``i`` is the
    pair the relinearization's digit ``i`` multiplies, stacked once here.
    """

    context: Context
    key0_ntt: np.ndarray
    key1_ntt: np.ndarray
    decomposition_bits: int

    def __post_init__(self) -> None:
        self.stacked_ntt = np.stack([self.key0_ntt, self.key1_ntt], axis=1)
        self.key0_ntt, self.key1_ntt = self.stacked_ntt[:, 0], self.stacked_ntt[:, 1]

    @property
    def count(self) -> int:
        return self.key0_ntt.shape[0]

    def byte_size(self) -> int:
        return self.key0_ntt.nbytes + self.key1_ntt.nbytes


@dataclass
class KeyPair:
    """Convenience bundle returned by :meth:`KeyGenerator.generate`."""

    public: PublicKey
    secret: SecretKey


class KeyGenerator:
    """Generates FV key material for a context.

    Args:
        context: the encryption context.
        rng: numpy Generator; pass a seeded generator for reproducible keys.
    """

    def __init__(self, context: Context, rng: np.random.Generator | None = None) -> None:
        self.context = context
        self.rng = rng if rng is not None else np.random.default_rng()

    def generate(self) -> KeyPair:
        """Run ``SecretKeyGen`` followed by ``PublicKeyGen``."""
        secret = self.secret_key()
        return KeyPair(public=self.public_key(secret), secret=secret)

    def secret_key(self) -> SecretKey:
        ring = self.context.ring
        s = ring.sample_ternary(self.rng)
        return SecretKey(self.context, ring.ntt(s))

    def public_key(self, secret: SecretKey) -> PublicKey:
        ring = self.context.ring
        stddev = self.context.params.noise_stddev
        a = ring.sample_uniform(self.rng)
        e = ring.sample_noise(self.rng, stddev)
        a_ntt = ring.ntt(a)
        e_ntt = ring.ntt(e)
        p0 = ring.neg(ring.add(ring.pointwise_mul(a_ntt, secret.s_ntt), e_ntt))
        return PublicKey(self.context, p0, a_ntt)

    def relin_keys(self, secret: SecretKey) -> RelinKeys:
        """``EvaluationKeyGen(sk, w)`` for ``w = 2**decomposition_bits``."""
        ring = self.context.ring
        params = self.context.params
        stddev = params.noise_stddev
        count = params.decomposition_count
        s2 = ring.pointwise_mul(secret.s_ntt, secret.s_ntt)
        key0 = np.empty((count, ring.k, ring.n), dtype=np.int64)
        key1 = np.empty((count, ring.k, ring.n), dtype=np.int64)
        power = 1
        for i in range(count):
            a = ring.ntt(ring.sample_uniform(self.rng))
            e = ring.ntt(ring.sample_noise(self.rng, stddev))
            body = ring.neg(ring.add(ring.pointwise_mul(a, secret.s_ntt), e))
            key0[i] = ring.add(body, ring.mul_scalar(s2, power))
            key1[i] = a
            power *= params.decomposition_base
        return RelinKeys(self.context, key0, key1, params.decomposition_bits)
