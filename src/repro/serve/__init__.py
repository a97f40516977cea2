"""Serving layer: packed scheduling of concurrent encrypted requests.

Two front ends over one queued-request record and one packed-flush
executor (``RequestScheduler.run_batch``):

* :mod:`repro.serve.scheduler` -- the synchronous capacity-only intake
  (``submit``/``drain``): requests for the same model coalesce into one
  coefficient-packed hybrid pipeline pass (legal because the enclave is the
  key authority, so every enrolled user shares its key pair), with
  bounded-queue backpressure and typed rejections.  It has no notion of
  time.
* :mod:`repro.serve.loop` -- the event-driven continuous-batching serving
  loop, sole owner of every time-based policy: a deterministic
  virtual-time event queue that admits open-loop traffic into in-flight
  slot groups under one coalescing window, sheds load off a queue-wait
  estimate, honors priority classes, and evicts requests whose hard SLO
  deadlines became hopeless.  :mod:`repro.serve.traffic` generates the
  seeded open-loop traces (Poisson + bursty) that drive it.
"""

from repro.serve.api import InferenceRequest, InferenceResult
from repro.serve.loop import (
    LoopConfig,
    LoopStats,
    LoopTicket,
    ServiceTimeModel,
    ServingLoop,
)
from repro.serve.scheduler import (
    PACKED_SCHEME,
    PendingResponse,
    RequestScheduler,
    ServeConfig,
    ServeStats,
)
from repro.serve.traffic import (
    Arrival,
    TrafficTrace,
    bursty_trace,
    merge,
    poisson_trace,
)

__all__ = [
    "PACKED_SCHEME",
    "Arrival",
    "InferenceRequest",
    "InferenceResult",
    "LoopConfig",
    "LoopStats",
    "LoopTicket",
    "PendingResponse",
    "RequestScheduler",
    "ServeConfig",
    "ServeStats",
    "ServiceTimeModel",
    "ServingLoop",
    "TrafficTrace",
    "bursty_trace",
    "merge",
    "poisson_trace",
]
