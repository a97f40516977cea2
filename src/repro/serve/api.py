"""The serving request/response API: one frozen request, one result type.

The serving surface is two types:

* :class:`InferenceRequest` -- a frozen, validated description of one
  encrypted inference: which model, which ciphertext, whether to ride the
  lane-packing scheduler, and the trace context naming it.  Frozen so a
  request can be routed, retried across replicas, or re-dispatched after a
  failover without aliasing surprises.  Time-based policy (coalescing
  window, priority class, hard SLO deadline) belongs to the
  :class:`~repro.serve.loop.ServingLoop` alone and is given to its
  ``submit``, not carried here.
* :class:`InferenceResult` -- what the server hands back: *encrypted*
  logits, one ciphertext per image, plus timing and serving metadata (the
  model, request id, packed batch size, queue wait, and the fleet replica
  that executed the flush).  This is the same object the pre-fleet code
  called ``ServedResult``; that name remains as an alias in
  :mod:`repro.core.server` so existing callers and ``isinstance`` checks
  keep working.

The synchronous facade (``EdgeServer.infer(request)``) and the client SDK
(:mod:`repro.client`) speak these types; the scheduler and the serving
loop resolve their tickets with :class:`InferenceResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ServeError
from repro.obs.context import TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import InferenceResult as TimingResult
    from repro.he.context import Ciphertext


@dataclass(frozen=True)
class InferenceRequest:
    """One encrypted inference request.

    Attributes:
        model: a provisioned model name.
        ciphertext: ``(B, C)`` image ciphertexts from the user's session
            (``UserSession.encrypt`` or the client SDK): one polynomial per
            image channel, pixel ``(i, j)`` in coefficient ``i*W + j``, the
            model's own ``(C, H, W)`` (:func:`~repro.he.batching.write_image`).
        pack: route through the lane-packing scheduler (the synchronous
            facade drains the bucket, so the call still returns a result).
        context: optional :class:`~repro.obs.context.TraceContext` naming
            this request in the process-wide trace tree (the client SDK
            injects one; serving front ends derive a deterministic
            fallback when absent).
    """

    model: str
    ciphertext: "Ciphertext"
    pack: bool = False
    context: TraceContext | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.model, str) or not self.model:
            raise ServeError("InferenceRequest.model must be a non-empty string")
        if self.context is not None and not isinstance(self.context, TraceContext):
            raise ServeError("InferenceRequest.context must be a TraceContext")


@dataclass
class InferenceResult:
    """What the server returns: *encrypted* logits plus serving metadata.

    ``logits_ct`` is a ``(B,)`` ciphertext, one per image of the request:
    class ``c`` of ``model``'s output rides coefficient ``c``, and every
    coefficient past the model's classes is zero, which the client checks
    when it decrypts (``UserSession.decrypt_logits``).  The format is
    :func:`~repro.he.batching.write_lanes` / ``read_lanes`` along the class
    axis; both serving paths' result crossing re-encrypts it.

    Requests served through the packing scheduler additionally carry their
    serving metadata: ``request_id``, the total ``packed_batch`` they
    shared a flush with, the simulated seconds spent coalescing
    (``queue_wait_s``), and the fleet ``replica`` whose enclave executed
    the flush.  Direct ``infer`` calls leave these at defaults.
    """

    logits_ct: "Ciphertext"
    timing: "TimingResult"
    model: str
    request_id: int | None = None
    packed_batch: int = 0
    queue_wait_s: float = 0.0
    replica: int | None = None
    context: TraceContext | None = None


__all__ = ["InferenceRequest", "InferenceResult"]
