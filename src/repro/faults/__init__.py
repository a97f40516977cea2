"""Deterministic fault injection and recovery (``repro.faults``).

Two halves:

* :mod:`repro.faults.plan` -- seedable :class:`FaultPlan`/:class:`FaultRule`
  machinery that instrumented sites across the enclave/serving stack
  consult when armed (and skip, at zero cost, when not);
* :mod:`repro.faults.recovery` -- the :class:`EnclaveSupervisor` that every
  pipeline routes its ECALLs through: retry with exponential backoff on the
  simulated clock, enclave restart with sealed-key restoration and
  re-attestation.

See DESIGN.md §11 for the fault model and ``tests/faults/`` for the chaos
suite that proves the recovery semantics.
"""

from repro.faults.plan import (
    ACTIONS,
    FaultEvent,
    FaultPlan,
    FaultRule,
    active_plan,
    arm,
    armed,
    disarm,
    inject,
    is_armed,
    poll,
)
from repro.faults.recovery import (
    EnclaveSupervisor,
    FleetManager,
    RetryPolicy,
)

__all__ = [
    "ACTIONS",
    "EnclaveSupervisor",
    "FleetManager",
    "FaultEvent",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "active_plan",
    "arm",
    "armed",
    "disarm",
    "inject",
    "is_armed",
    "poll",
]
