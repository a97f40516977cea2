"""The edge server's inference enclave: trusted code of the hybrid framework.

One enclave class covers every trusted duty the paper assigns to SGX:

* **Key authority** (Section IV-A): generates the FV key pair *inside* the
  enclave and releases the private key only through the attested
  secure-channel handshake -- no external trusted third party.
* **Relinearization-key generation** (Section III-A): the evaluation keys
  require the secret key, so the enclave produces them for the untrusted
  evaluator.
* **Plaintext computing** (Section IV-D): activation functions and pooling
  are decrypted, computed exactly, and re-encrypted inside the enclave --
  on the serving paths together with the fc layer after them, so a served
  image crosses once.
* **Noise refresh** (Section IV-E): decrypt/re-encrypt replaces
  relinearization, resetting ciphertext noise to fresh level.

The secret key never appears in any ECALL return value except the encrypted
key-exchange payload; a test asserts this boundary.
"""

from __future__ import annotations

import functools
import struct
from contextlib import contextmanager

import numpy as np

from repro.core import securechannel
from repro.errors import EncodingError, PipelineError
from repro.he.batching import ImageLayout, read_image, write_image, write_lanes
from repro.he.context import Ciphertext, Context, Plaintext
from repro.he.decryptor import Decryptor
from repro.he.encryptor import SymmetricEncryptor
from repro.he.keys import KeyGenerator, KeyPair, PublicKey, RelinKeys
from repro.he.params import EncryptionParams
from repro.he.serialize import (
    deserialize_public_key,
    deserialize_secret_key,
    serialize_public_key,
    serialize_secret_key,
)
from repro.nn.layers import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.sgx.enclave import Enclave
from repro.sgx.ecall import ecall

#: Activation functions the enclave can evaluate exactly (paper Section VI-C:
#: "SGX enables the calculation of diverse activation functions flexibly").
ACTIVATIONS = {
    "sigmoid": Sigmoid.apply,
    "relu": ReLU.apply,
    "tanh": Tanh.apply,
    "leaky_relu": lambda x: LeakyReLU(0.01).forward(x),
}


class InferenceEnclave(Enclave):
    """Trusted co-processor for the hybrid HE+SGX pipeline.

    Args:
        params: FV parameter set the service operates under.
        seed: deterministic randomness for reproducible benchmarks.
        context_type: the :class:`~repro.he.context.Context` class the
            trusted decrypt and re-encrypt compute with
            (:class:`repro.he.oracle.Context`: the reference formulas).
    """

    def __init__(
        self,
        params: EncryptionParams,
        seed: int | None = None,
        *,
        context_type: type[Context] = Context,
    ) -> None:
        super().__init__()
        self._context = context_type(params)
        self._rng = np.random.default_rng(seed)
        self._keygen = KeyGenerator(self._context, self._rng)
        self._keys = None
        self._decryptor: Decryptor | None = None
        self._encryptor: SymmetricEncryptor | None = None

    # ------------------------------------------------------------------
    # key authority
    # ------------------------------------------------------------------
    @ecall
    def generate_keys(self) -> PublicKey:
        """FV key generation inside the enclave; only the public key leaves."""
        self._keys = self._keygen.generate()
        self._decryptor = Decryptor(self._context, self._keys.secret)
        self._encryptor = SymmetricEncryptor(self._context, self._keys.secret, self._rng)
        return self._keys.public

    @ecall
    def snapshot_keys(self):
        """Seal the FV key pair for crash recovery (supervisor-driven).

        The blob is bound to this MRENCLAVE on this platform, so persisting
        it to untrusted storage releases nothing; only a restarted instance
        of the *same* trusted code can :meth:`restore_keys` from it.
        """
        self._require_keys()
        payload = _pack_key_pair(
            serialize_public_key(self._keys.public),
            serialize_secret_key(self._keys.secret),
        )
        return self.seal(payload)

    @ecall
    def restore_keys(self, blob, nonce: bytes) -> None:
        """Unseal a :meth:`snapshot_keys` blob into a restarted enclave and
        approve ``nonce`` for the supervisor's re-attestation report.

        Raises:
            SealingError: the blob was sealed by different trusted code, a
                different platform, or was tampered with -- recovery must not
                proceed on such keys.
        """
        payload = self.unseal(blob)
        public_bytes, secret_bytes = unpack_key_pair(payload)
        self._keys = KeyPair(
            public=deserialize_public_key(public_bytes, self._context),
            secret=deserialize_secret_key(secret_bytes, self._context),
        )
        self._decryptor = Decryptor(self._context, self._keys.secret)
        self._encryptor = SymmetricEncryptor(self._context, self._keys.secret, self._rng)
        self.attest(nonce)

    @ecall
    def get_public_key(self) -> PublicKey:
        self._require_keys()
        return self._keys.public

    @ecall
    def generate_relin_keys(self) -> RelinKeys:
        """Evaluation keys for the untrusted evaluator (needs the secret)."""
        self._require_keys()
        return self._keygen.relin_keys(self._keys.secret)

    @ecall
    def key_exchange(self, user_dh_public: int) -> tuple:
        """Attested key delivery (Section IV-A).

        Returns ``(sealed_message, user_data)``: the FV key pair encrypted
        under the DH session key, and the user_data -- enclave DH share plus
        payload digest -- that this call approves for the next report.  The
        host forwards both, plus the quote over ``user_data``, to the user.
        """
        self._require_keys()
        entropy = self._rng.bytes(32)
        dh = securechannel.DhKeyPair.generate(entropy)
        session_key = dh.shared_secret(user_dh_public)
        payload = _pack_key_pair(
            serialize_public_key(self._keys.public),
            serialize_secret_key(self._keys.secret),
        )
        nonce = self._rng.bytes(16)
        message = securechannel.encrypt_message(session_key, payload, nonce)
        digest = securechannel.payload_digest(
            message.nonce + message.ciphertext + message.tag
        )
        user_data = securechannel.bind_user_data(dh.public, digest)
        self.attest(user_data)
        return message, user_data

    # ------------------------------------------------------------------
    # plaintext computing (Section IV-D)
    # ------------------------------------------------------------------
    @ecall
    def activation_pool(
        self,
        ct: Ciphertext,
        input_scale: float,
        output_scale: int,
        window: int,
        activation: str = "sigmoid",
        pool: str = "mean",
        image: ImageLayout | None = None,
        batch: int | None = None,
        fc: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> Ciphertext:
        """Decrypt, apply the exact activation + pooling, re-encrypt.

        This is the paper's batched ``EncryptSGX`` step: one enclave crossing
        per feature-map batch instead of one per pixel.  ``pool`` may be
        ``mean`` or ``max`` -- max-pooling is only computable here
        (Section VI-D).  ``ct`` is scalar-encoded ``(B, F, OH, OW)``, and one
        scalar ciphertext per pooled value comes back.

        With ``image`` it is the serving paths' one crossing: ``ct`` holds
        the served request format's ``(B, F)`` conv outputs, one image per
        ciphertext -- or a flush's folded ``batch``, ``P`` images per
        ciphertext (:func:`~repro.he.batching.read_image`) -- and the last
        linear layer runs here too, on the pooled plaintext: ``fc`` is its
        public integer ``(D, O)`` weight and ``(O,)`` bias, passed per call
        so the enclave holds no model state.  Image ``b``'s logits come back
        as served result ``b``: one ciphertext per image, class ``c`` in
        coefficient ``c``, every other coefficient zero.  Without ``fc`` it
        is an inner block's crossing of a multi-block model: the pooled maps
        come back as the next block's images, ``n // (H*W)`` per ciphertext
        (:func:`~repro.he.batching.write_image`), folded as that block's conv
        reads them.
        """
        values = self._decrypt_values(ct, batch, image)
        pooled = _activate_pool(values, input_scale, output_scale, window, activation, pool)
        if image is None:
            return self._encrypt_values(pooled)
        if fc is None:
            per = self._context.poly_degree // (pooled.shape[2] * pooled.shape[3])
            return self._encrypt_values(pooled, functools.partial(write_image, per=per))
        weight, bias = fc
        features = pooled.reshape(len(pooled), -1)
        if weight.shape[0] != features.shape[1]:
            raise PipelineError(
                f"fc takes {weight.shape[0]} features, the crossing pooled "
                f"{features.shape[1]}"
            )
        logits = features @ weight + bias
        return self._encrypt_values(logits.T, write_lanes).reshape(len(pooled))

    @ecall
    def sigmoid(self, ct: Ciphertext, input_scale: float, output_scale: int) -> Ciphertext:
        """Exact sigmoid only (Fig. 5's ``SGXSigmoid`` operation)."""
        values = self._decrypt_values(ct).astype(np.float64) / input_scale
        requantized = np.rint(Sigmoid.apply(values) * output_scale).astype(np.int64)
        return self._encrypt_values(requantized)

    @ecall
    def divide(self, ct: Ciphertext, divisor: int) -> Ciphertext:
        """Exact division for mean-pooling (Fig. 6's ``SGXDivide``): the
        window sum was computed homomorphically outside; only the non-linear
        division enters the enclave."""
        if divisor <= 0:
            raise PipelineError("divisor must be positive")
        values = self._decrypt_values(ct)
        quotient = np.rint(values / divisor).astype(np.int64)
        return self._encrypt_values(quotient)

    @ecall
    def mean_pool(self, ct: Ciphertext, window: int) -> Ciphertext:
        """Whole pooling inside the enclave (Fig. 6's ``SGXPool``): the full
        feature map is decrypted, summed and divided in trusted code."""
        values = self._decrypt_values(ct)
        pooled = np.rint(_mean_pool(values.astype(np.float64), window)).astype(np.int64)
        return self._encrypt_values(pooled)

    # ------------------------------------------------------------------
    # noise refresh (Section IV-E)
    # ------------------------------------------------------------------
    @ecall
    def refresh(self, ct: Ciphertext) -> Ciphertext:
        """Decrypt/re-encrypt: removes accumulated noise *and* shrinks
        size-3 post-multiplication ciphertexts back to size 2 without any
        relinearization keys."""
        self._load_crypto_state()
        plain = self._decryptor.decrypt(ct)
        return self._encryptor.encrypt(plain)

    # ------------------------------------------------------------------
    # internals (trusted-only helpers)
    # ------------------------------------------------------------------
    def _require_keys(self) -> None:
        if self._keys is None:
            raise PipelineError("generate_keys must be called first")

    def _crypto_state_bytes(self) -> int:
        """In-enclave working set of one crypto operation: the NTT tables of
        the homomorphic context plus the loaded key material.

        Each crossing pages this state back into the EPC; the paper's
        Table V / Section VII-B analysis attributes the single-vs-batched
        gap to exactly this per-crossing key (re)loading.
        """
        ring = self._context.ring
        tables = ring.k * ring.n * 8 * 4  # psi / psi^-1 tables, both directions
        keys = 0
        if self._keys is not None:
            keys = self._keys.secret.byte_size() + self._keys.public.byte_size()
        return tables + keys

    def _load_crypto_state(self) -> None:
        self._require_keys()
        self.touch_working_set(self._crypto_state_bytes())

    def _decrypt_values(
        self,
        ct: Ciphertext,
        batch: int | None = None,
        image: ImageLayout | None = None,
    ) -> np.ndarray:
        """The crossings' one decode: the scalar-encoded values of ``ct``;
        with ``image``, the conv outputs of image-encoded ``(rows, F)``
        ciphertexts -- one image per row, or a fold's ``batch`` images ``P``
        per row.  Zero probes checked (and, for images, the conv bound)."""
        self._load_crypto_state()
        with _typed_read():
            if image is not None:
                per = 1 if batch is None else image.per_ciphertext(self._context.poly_degree)
                return read_image(self._decryptor.decrypt(ct), image, batch, per)
            return self._decryptor.decrypt_constants(ct)

    def _encrypt_values(self, values: np.ndarray, write=None) -> Ciphertext:
        """One scalar ciphertext per value, or the plaintext ``write(context,
        values)`` lays out (a served result's classes, the next block's
        images)."""
        t = self._context.plain_modulus
        limit = t // 2
        if (np.abs(values) > limit).any():
            raise PipelineError(
                f"re-encryption values exceed the plaintext range +-{limit}"
            )
        if write is not None:
            return self._encryptor.encrypt(write(self._context, values))
        coeffs = np.zeros((*values.shape, self._context.poly_degree), dtype=np.int64)
        coeffs[..., 0] = values % t
        return self._encryptor.encrypt(Plaintext(self._context, coeffs))


@contextmanager
def _typed_read():
    """A decrypted payload that does not decode as expected is the host's
    fault: :class:`PipelineError`, never a silently wrong value."""
    try:
        yield
    except EncodingError as exc:
        raise PipelineError(
            f"ciphertext does not hold the expected values ({exc}): the outside "
            "computation overflowed, used another encoder or mis-stated the batch"
        ) from exc


def _pool_windows(values: np.ndarray, window: int) -> np.ndarray:
    if values.ndim != 4:
        raise PipelineError("pooling expects (B, C, H, W) values")
    b, c, h, w = values.shape
    if window < 1:
        raise PipelineError(f"pooling window must be >= 1, got {window}")
    if h % window or w % window:
        raise PipelineError(f"map {h}x{w} not divisible by window {window}")
    return values.reshape(b, c, h // window, window, w // window, window)


def _mean_pool(values: np.ndarray, window: int) -> np.ndarray:
    return _pool_windows(values, window).mean(axis=(3, 5))


def _max_pool(values: np.ndarray, window: int) -> np.ndarray:
    return _pool_windows(values, window).max(axis=(3, 5))


def _activate_pool(
    values: np.ndarray,
    input_scale: float,
    output_scale: int,
    window: int,
    activation: str,
    pool: str,
) -> np.ndarray:
    """Dequantize, exact activation, ``mean``/``max`` pooling, requantize:
    the plaintext step of every ``activation_pool`` crossing."""
    fn = ACTIVATIONS.get(activation)
    if fn is None:
        raise PipelineError(
            f"unsupported activation {activation!r}; available: {sorted(ACTIVATIONS)}"
        )
    activated = fn(values.astype(np.float64) / input_scale)
    if pool == "max":
        pooled = _max_pool(activated, window)
    elif pool == "mean":
        pooled = _mean_pool(activated, window)
    else:
        raise PipelineError(f"unsupported enclave pool {pool!r}")
    return np.rint(pooled * output_scale).astype(np.int64)


def _pack_key_pair(public_bytes: bytes, secret_bytes: bytes) -> bytes:
    return struct.pack("<II", len(public_bytes), len(secret_bytes)) + public_bytes + secret_bytes


def unpack_key_pair(payload: bytes) -> tuple[bytes, bytes]:
    """Inverse of the enclave's key-pair packing (user side)."""
    pub_len, sec_len = struct.unpack_from("<II", payload, 0)
    offset = struct.calcsize("<II")
    return payload[offset : offset + pub_len], payload[offset + pub_len : offset + pub_len + sec_len]
