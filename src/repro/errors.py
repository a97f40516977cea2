"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError, ValueError):
    """Invalid or inconsistent encryption / simulation parameters."""


class EncodingError(ReproError, ValueError):
    """A value cannot be encoded into (or decoded from) the plaintext ring."""


class NoiseBudgetExhausted(ReproError, ArithmeticError):
    """A ciphertext's invariant noise grew past the decryptable threshold."""


class SerializationError(ParameterError):
    """A serialized payload is malformed, truncated or corrupt.

    Derives from :class:`ParameterError` so existing callers that guard
    deserialization with ``except ParameterError`` keep working.
    """


class MetricsError(ReproError, ValueError):
    """A metrics-registry family or sample was misused (negative counter
    increment, label mismatch, conflicting re-registration)."""


class TraceFormatError(ReproError, ValueError):
    """An exported trace document is malformed (unknown span kind, missing
    required fields) and cannot be rebuilt into a span tree."""


class KeyMismatchError(ReproError, ValueError):
    """An operation mixed keys or ciphertexts from different contexts."""


class EnclaveError(ReproError, RuntimeError):
    """Generic enclave-simulator failure."""


class EnclaveMemoryError(EnclaveError, MemoryError):
    """The enclave exceeded its committed heap allowance."""


class EnclaveNotInitialized(EnclaveError):
    """An ECALL was issued against an enclave that was never created."""


class EnclaveCrashed(EnclaveError):
    """The enclave was lost mid-execution (AEX-style crash).

    The handle stays unusable until the enclave is reloaded; the
    :class:`~repro.faults.EnclaveSupervisor` treats this error -- and only
    this error -- as the signal to restart, re-attest and re-provision keys.
    """


class RecoveryExhausted(EnclaveError):
    """The enclave restart/retry policy gave up.

    Raised by :class:`~repro.faults.EnclaveSupervisor` after
    ``RetryPolicy.max_attempts`` consecutive crashes, or when a restart
    itself fails unrecoverably (sealed keys unrecoverable, re-attestation
    rejected).  ``__cause__`` carries the final underlying failure.
    """


class TraceTruncatedError(EnclaveError):
    """A side-channel trace was compared after the log dropped its oldest
    events: the comparison would run on a partial trace."""


class AttestationError(EnclaveError):
    """Remote attestation failed (bad measurement, tampered quote, ...)."""


class SealingError(EnclaveError):
    """Sealed-blob integrity check failed or the blob belongs to another enclave."""


class ArenaError(ReproError, ValueError):
    """Ciphertext arena misuse: exhausted capacity, foreign or freed views."""


class ParallelError(ReproError, RuntimeError):
    """The shared-memory worker pool failed (stalled units, dead workers
    past recovery, or a misconfigured worker count)."""


class ModelError(ReproError, ValueError):
    """Neural-network model construction or shape inference failed."""


class PipelineError(ReproError, RuntimeError):
    """A privacy-preserving inference pipeline was misused or misconfigured."""


class ServeError(PipelineError):
    """Base class for request-scheduler failures (``repro.serve``).

    Derives from :class:`PipelineError` so existing callers that guard the
    serving facade with ``except PipelineError`` keep working.
    """


class UnknownModelError(ServeError, KeyError):
    """A request named a model the edge server has not provisioned."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message
        return RuntimeError.__str__(self)


class QueueFullError(ServeError):
    """The scheduler's bounded queue rejected a request (backpressure)."""


class BatchTooLargeError(ServeError):
    """A single request exceeds the scheduler's lane-packing capacity."""


class ResponseNotReady(ServeError):
    """A pending response was read before its batch was flushed."""


class OverloadedError(ServeError):
    """Admission control shed the request: the estimated queue wait already
    exceeds the serving loop's admission SLO, so accepting it would only
    poison tail latency for everyone queued behind it.  Typed so callers
    can distinguish "retry later / back off" from a hard failure."""


class DeadlineEvictedError(ServeError):
    """The serving loop evicted a queued request whose hard SLO deadline
    can no longer be met: the earliest completion any future flush could
    give it lies past ``slo_deadline_s``, so its slots go to requests that
    can still make their deadlines."""


class ClientError(ReproError, RuntimeError):
    """Base class for client-SDK session failures (``repro.client``).

    Each transition of the attested-connection state machine (CONNECT ->
    VERIFY_QUOTE -> SESSION_PINNED -> READY) fails with its own subclass,
    so callers can distinguish "retry the connection" from "this endpoint
    is not the enclave you enrolled with".
    """


class ClientStateError(ClientError):
    """A session method was called out of state-machine order, or after the
    session reached its terminal FAILED state."""


class ClientConnectError(ClientError):
    """The CONNECT transition failed: the fleet endpoint has no live
    replicas or hosts no models."""


class QuoteVerificationError(ClientError):
    """The VERIFY_QUOTE transition failed: the endpoint's attestation quote
    did not verify (wrong code identity, unprovisioned platform, tampered
    payload binding).  Terminal -- the session refuses all further use."""


class SessionPinError(ClientError):
    """The SESSION_PINNED invariant was violated: on (re)connect the
    endpoint delivered a key pair whose fingerprint differs from the one
    this session pinned -- a key-rotated (or impostor) replica.  Terminal."""


class RequestFailedError(ServeError):
    """A scheduled request failed during its (packed) flush.

    The scheduler resolves every queued request -- a failed flush never
    leaves a future permanently :class:`ResponseNotReady`.  ``__cause__``
    carries the underlying failure (a poisoned ciphertext's
    :class:`PipelineError`, an unrecoverable :class:`RecoveryExhausted`, ...).
    """
