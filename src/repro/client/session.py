"""The attested client session: a state machine, not a pile of calls.

The one way a user enrolls with an edge server.  The SDK makes the trust
establishment of the Fig. 2 exchange explicit and *inspectable*: one
:class:`AttestedClient` walks

    CREATED -> CONNECT -> VERIFY_QUOTE -> SESSION_PINNED -> READY

with a typed error per transition (:mod:`repro.errors`):

* **CONNECT** (:meth:`AttestedClient.connect`): read the endpoint's
  descriptor -- hosted models, fleet topology, claimed code identity.
  Fails with :class:`~repro.errors.ClientConnectError` when the fleet has
  no live replicas or hosts nothing; retryable (the session stays CREATED).
* **VERIFY_QUOTE** (:meth:`AttestedClient.verify_quote`): run the attested
  DH key exchange against the fleet's authority replica and verify its
  quote.  Fails with :class:`~repro.errors.QuoteVerificationError` --
  **terminal**: an endpoint that cannot prove its code identity never gets
  a second chance from the same session.
* **SESSION_PINNED** (:meth:`AttestedClient.pin_session`): fingerprint the
  delivered HE public key and pin it.  On reconnect the fresh delivery must
  match the pin; a mismatch means the fleet rotated keys (or an impostor
  answered) and fails with :class:`~repro.errors.SessionPinError` --
  **terminal**.
* **READY** (:meth:`AttestedClient.activate`): build the user-side crypto
  endpoints; :meth:`infer` / :meth:`decrypt_logits` / :meth:`predict` now
  work.

:meth:`establish` chains the four transitions; :meth:`reconnect` re-runs
them after a replica crash or authority failover, keeping the pin -- the
fleet shares one migrated key pair, so a legitimate surviving replica
reproduces the pinned fingerprint exactly and results remain bit-identical.
"""

from __future__ import annotations

import enum
import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.core.keyflow import UserClient
from repro.errors import (
    AttestationError,
    ClientConnectError,
    ClientStateError,
    QuoteVerificationError,
    SessionPinError,
)
from repro.he import serialize as he_serialize
from repro.he.context import Context
from repro.he.decryptor import Decryptor
from repro.he.encryptor import Encryptor
from repro.obs import metrics
from repro.obs.context import TraceContext
from repro.serve.api import InferenceRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import EdgeServer, ServedResult, UserSession
    from repro.he.context import Ciphertext
    from repro.sgx.attestation import AttestationVerificationService


class SessionState(str, enum.Enum):
    """Where an :class:`AttestedClient` stands in its trust establishment."""

    CREATED = "created"
    CONNECTED = "connected"
    QUOTE_VERIFIED = "quote_verified"
    SESSION_PINNED = "session_pinned"
    READY = "ready"
    FAILED = "failed"


def key_fingerprint(public_key) -> str:
    """Stable fingerprint of a delivered HE public key (SHA-256 over its
    wire serialization) -- what a session pins against."""
    return hashlib.sha256(he_serialize.serialize_public_key(public_key)).hexdigest()


class AttestedClient:
    """One user's attested connection to an enclave-fleet endpoint.

    The single supported client entry point: examples, benchmarks and
    integrations talk to the :class:`~repro.core.server.EdgeServer` through
    this object instead of wiring ``UserClient`` + verifier by hand.

    Args:
        server: the fleet endpoint (in-process here; a network stub in a
            real deployment).
        verifier: the attestation verification service this user trusts
            (must know the server's platform -- see
            ``AttestationVerificationService.register_platform``).
        entropy: user-supplied randomness for the DH exchange.
        expected_mrenclave: pin the enclave code identity up front; when
            None, the descriptor's claimed identity is adopted at CONNECT
            (trust-on-first-use) and every later quote must prove it.
    """

    def __init__(
        self,
        server: "EdgeServer",
        verifier: "AttestationVerificationService",
        entropy: bytes,
        *,
        expected_mrenclave: str | None = None,
    ) -> None:
        self.server = server
        self.verifier = verifier
        self._entropy = entropy
        self.expected_mrenclave = expected_mrenclave
        self.state = SessionState.CREATED
        self.descriptor: dict | None = None
        self.pinned_fingerprint: str | None = None
        self.pinned_key_generation: int | None = None
        self.session: "UserSession | None" = None
        self.connects = 0
        self.reconnects = 0
        self.requests_issued = 0
        self._keys = None

    # ------------------------------------------------------------------
    # state machinery
    # ------------------------------------------------------------------
    def _require(self, expected: SessionState, action: str) -> None:
        if self.state is SessionState.FAILED:
            raise ClientStateError(
                f"this session is FAILED (terminal); {action} refused -- "
                "create a fresh AttestedClient"
            )
        if self.state is not expected:
            raise ClientStateError(
                f"{action} requires state {expected.value!r}, "
                f"session is {self.state.value!r}"
            )

    def _transition(self, to: SessionState) -> None:
        self.state = to
        metrics.family("repro_client_transitions_total").labels(state=to.value).inc()

    def _fail(self, error: Exception) -> Exception:
        self._transition(SessionState.FAILED)
        return error

    # ------------------------------------------------------------------
    # the four transitions
    # ------------------------------------------------------------------
    def connect(self) -> dict:
        """CONNECT: read the endpoint descriptor and adopt its identity.

        Retryable -- a failed connect leaves the session in CREATED.

        Raises:
            ClientConnectError: the fleet has no live replicas or no models.
            ClientStateError: called out of order or after FAILED.
        """
        self._require(SessionState.CREATED, "connect")
        descriptor = self.server.descriptor()
        if not descriptor.get("replicas"):
            raise ClientConnectError("endpoint has no live fleet replicas")
        if not descriptor.get("models"):
            raise ClientConnectError("endpoint hosts no provisioned models")
        self.descriptor = descriptor
        if self.expected_mrenclave is None:
            # Trust-on-first-use: adopt the claimed identity now; every
            # quote from here on must *prove* it.
            self.expected_mrenclave = descriptor["mrenclave"]
        self.connects += 1
        self._transition(SessionState.CONNECTED)
        return descriptor

    def verify_quote(self) -> None:
        """VERIFY_QUOTE: attested DH exchange + quote verification.

        Terminal on failure: a session that saw one bad quote is FAILED.

        Raises:
            QuoteVerificationError: the quote did not verify (wrong code
                identity, unregistered platform, tampered payload binding).
        """
        self._require(SessionState.CONNECTED, "verify_quote")
        client = UserClient(
            params=self.server.params,
            verifier=self.verifier,
            expected_mrenclave=self.expected_mrenclave,
            entropy=self._entropy,
        )
        try:
            quote, sealed = self.server.serve_key_exchange(client.begin_exchange())
            self._keys = client.complete_exchange(quote, sealed)
        except AttestationError as exc:
            raise self._fail(
                QuoteVerificationError(
                    f"endpoint quote failed verification: {exc}"
                )
            ) from exc
        self._transition(SessionState.QUOTE_VERIFIED)

    def pin_session(self) -> str:
        """SESSION_PINNED: fingerprint the delivered key pair and pin it.

        The first pin is trust-on-first-delivery; every reconnect must
        reproduce it bit-for-bit.  Because the whole fleet shares one
        migrated key pair, a legitimate survivor always does -- a mismatch
        means rotated keys or an impostor.  Terminal on mismatch.

        Raises:
            SessionPinError: delivered key fingerprint differs from the pin.
        """
        self._require(SessionState.QUOTE_VERIFIED, "pin_session")
        fingerprint = key_fingerprint(self._keys.public)
        generation = (self.descriptor or {}).get("key_generation")
        if self.pinned_fingerprint is None:
            self.pinned_fingerprint = fingerprint
            self.pinned_key_generation = generation
        elif fingerprint != self.pinned_fingerprint:
            raise self._fail(
                SessionPinError(
                    "delivered key fingerprint "
                    f"{fingerprint[:16]}... does not match the pinned "
                    f"{self.pinned_fingerprint[:16]}... (key generation "
                    f"{generation} vs pinned {self.pinned_key_generation}): "
                    "the fleet rotated keys or this is not your enclave"
                )
            )
        self._transition(SessionState.SESSION_PINNED)
        return self.pinned_fingerprint

    def activate(self) -> "UserSession":
        """READY: build the user-side crypto endpoints from the pinned keys."""
        self._require(SessionState.SESSION_PINNED, "activate")
        from repro.core.server import UserSession

        context = Context(self.server.params)
        self.session = UserSession(
            context=context,
            encryptor=Encryptor(context, self._keys.public),
            decryptor=Decryptor(context, self._keys.secret),
            quantized_by_model={
                name: self.server.model(name) for name in self.server.models()
            },
        )
        self._transition(SessionState.READY)
        return self.session

    # ------------------------------------------------------------------
    # composites
    # ------------------------------------------------------------------
    def establish(self) -> "AttestedClient":
        """Run CONNECT -> VERIFY_QUOTE -> SESSION_PINNED -> READY."""
        self.connect()
        self.verify_quote()
        self.pin_session()
        self.activate()
        return self

    def reconnect(self) -> "AttestedClient":
        """Re-establish after a replica crash / authority failover.

        Keeps the pinned fingerprint: the surviving authority must deliver
        the *same* key pair (sealed-key migration guarantees it), so
        results before and after the reconnect stay bit-identical.  A
        key-rotated fleet fails the pin check terminally instead.

        Raises:
            ClientStateError: the session never pinned, or is FAILED.
        """
        if self.state is SessionState.FAILED:
            raise ClientStateError(
                "this session is FAILED (terminal); reconnect refused -- "
                "create a fresh AttestedClient"
            )
        if self.pinned_fingerprint is None:
            raise ClientStateError(
                "reconnect requires an established session; call establish() first"
            )
        self.descriptor = None
        self._keys = None
        self.session = None
        self.state = SessionState.CREATED
        self.reconnects += 1
        return self.establish()

    # ------------------------------------------------------------------
    # inference (READY only)
    # ------------------------------------------------------------------
    def encrypt(self, model: str, images: np.ndarray) -> "Ciphertext":
        """Quantize + encrypt ``images`` under the session's pinned keys."""
        self._require(SessionState.READY, "encrypt")
        return self.session.encrypt(model, images)

    def request(
        self,
        model: str,
        images: np.ndarray,
        *,
        pack: bool = False,
        context: TraceContext | None = None,
    ) -> InferenceRequest:
        """Encrypt and wrap ``images`` as a canonical
        :class:`~repro.serve.api.InferenceRequest` (for callers that drive
        the scheduler or serving loop themselves).

        Every request carries a :class:`~repro.obs.context.TraceContext`:
        pass one explicitly, or the client derives it deterministically
        from the session entropy and its monotone request counter, so the
        same workload always produces the same trace ids.
        """
        self.requests_issued += 1
        if context is None:
            context = TraceContext.derive(self._entropy, self.requests_issued)
        return InferenceRequest(
            model=model,
            ciphertext=self.encrypt(model, images),
            pack=pack,
            context=context,
        )

    def infer(
        self, model: str, images: np.ndarray, *, pack: bool = False
    ) -> "ServedResult":
        """Encrypt, serve, and return the (still encrypted) result."""
        return self.server.infer(self.request(model, images, pack=pack))

    def decrypt_logits(self, result: "ServedResult") -> np.ndarray:
        self._require(SessionState.READY, "decrypt_logits")
        return self.session.decrypt_logits(result)

    def decrypt(self, result: "ServedResult") -> np.ndarray:
        """Decrypt a served result straight to argmax predictions."""
        self._require(SessionState.READY, "decrypt")
        return self.session.decrypt(result)

    def predict(
        self, model: str, images: np.ndarray, *, pack: bool = False
    ) -> np.ndarray:
        """End-to-end: encrypted inference, decrypted argmax predictions."""
        result = self.infer(model, images, pack=pack)
        return self.decrypt_logits(result).argmax(axis=1)
