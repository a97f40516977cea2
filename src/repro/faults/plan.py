"""Deterministic, seedable fault injection: plans, rules and process arming.

The serving stack assumes the enclave, the attestation chain and the HE
noise budget always behave -- yet the paper's own design (§IV) makes the
enclave a single trusted co-processor whose crash, EPC eviction or
key-provisioning failure stalls every pipeline.  This module provides the
*deterministic* half of the chaos story: a :class:`FaultPlan` (seeded RNG
plus per-site rules) can be armed process-wide, and instrumented sites
across ``repro.sgx``, ``repro.he`` and ``repro.serve`` consult it.

Design constraints, in order:

* **Zero overhead disarmed.**  Every site gates on :func:`is_armed` -- a
  module-global ``is None`` check -- before building any context.  With no
  plan armed, pipelines execute the exact pre-fault-layer code path and
  produce bit-identical ciphertext bytes (asserted by
  ``tests/faults/test_zero_overhead.py``).
* **Determinism.**  A plan is a pure function of its seed and the sequence
  of eligible site hits: the same plan against the same workload fires the
  same faults.  Probabilistic rules draw from the plan's own
  ``numpy`` generator, never from global randomness; counting rules
  (``after`` / ``max_fires``) use per-rule hit counters.
* **Observability.**  Every fired fault is appended to the plan's
  :attr:`FaultPlan.events` log, and sites with a tracer in reach
  additionally record a zero-duration ``fault/<site>`` span so traces show
  exactly where a run degraded.

Instrumented sites (see DESIGN.md §11 for the recovery semantics):

========================== ====================================================
``sgx.ecall``              AEX-style crash inside ``EnclaveHandle.ecall``; the
                           handle is lost until the supervisor restarts it
``sgx.epc.touch``          EPC eviction storm (all resident pages evicted);
                           a perturbation -- results are unchanged, paging
                           costs accrue
``sgx.attestation.quote``  the quoting enclave refuses to sign
``sgx.attestation.verify`` the verification service rejects the quote
``sgx.sealing.unseal``     sealed-blob recovery fails (key provisioning)
``he.serialize.deserialize`` wire bytes are corrupted before parsing
                           (bit flip or truncation, per ``rule.action``)
``he.noise.decrypt``       the noise budget is exhausted at decrypt time
``serve.loop.timer``       timer storm: the serving loop's deadline timer is
                           duplicated many times over; dispatch must stay
                           idempotent (a perturbation -- results unchanged)
``serve.loop.flush_done``  the serving loop's flush-completion event is lost;
                           the always-armed watchdog re-delivers the finished
                           flush's results (a perturbation -- late, not lost)
``serve.fleet.replica``    host-level loss of one fleet replica at dispatch
                           (``name`` = replica id): the replica's enclave is
                           destroyed mid-flush and the scheduler must fail
                           the batch over to a surviving replica (a
                           perturbation -- results unchanged, bit-identical
                           logits from the survivor)
========================== ====================================================
"""

from __future__ import annotations

import fnmatch
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError

#: Actions perturbation sites understand (``FaultRule.action``).
ACTIONS = ("raise", "evict_all", "bitflip", "truncate")


@dataclass(frozen=True)
class FaultRule:
    """One per-site injection rule.

    Attributes:
        site: site name the rule applies to; ``fnmatch`` pattern, so
            ``"sgx.*"`` matches every SGX-layer site.
        name: optional ``fnmatch`` filter against the site's ``name``
            context (e.g. the ECALL method name); ``None`` matches all.
        probability: chance of firing per eligible hit, drawn from the
            plan's seeded RNG (1.0 = always).
        after: number of eligible hits to let pass before the rule may fire
            (0 = eligible immediately) -- the deterministic way to target
            "the third crossing".
        max_fires: cap on total fires (``None`` = unlimited; the
            "unrecoverable" setting for crash rules).
        error: exception type to raise; ``None`` lets the site apply its
            default (e.g. ``EnclaveCrashed`` at ``sgx.ecall``).
        action: what perturbation sites should do (one of :data:`ACTIONS`);
            ``"raise"`` -- the default -- means inject the error.
    """

    site: str
    name: str | None = None
    probability: float = 1.0
    after: int = 0
    max_fires: int | None = 1
    error: type[BaseException] | None = None
    action: str = "raise"

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(f"probability must be in [0, 1], got {self.probability}")
        if self.after < 0:
            raise ReproError(f"after must be >= 0, got {self.after}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ReproError("max_fires must be >= 1 (or None for unlimited)")
        if self.action not in ACTIONS:
            raise ReproError(f"unknown action {self.action!r}; expected one of {ACTIONS}")
        if self.error is not None and not (
            isinstance(self.error, type) and issubclass(self.error, BaseException)
        ):
            raise ReproError("error must be an exception type")


@dataclass
class FaultEvent:
    """One fired fault: which rule, at which site, on which eligible hit."""

    site: str
    rule: FaultRule
    hit: int
    fire: int
    context: dict = field(default_factory=dict)


class FaultPlan:
    """A seeded set of fault rules; deterministic given the call sequence.

    Args:
        seed: seeds the plan's private RNG (used only by rules with
            ``probability < 1``).
        rules: the injection rules, consulted in order -- the first rule
            that fires wins the hit.
    """

    def __init__(self, seed: int, rules: list[FaultRule] | tuple[FaultRule, ...] = ()):
        self.seed = seed
        self.rules = list(rules)
        self._rng = np.random.default_rng(seed)
        self._hits: dict[int, int] = {}
        self._fires: dict[int, int] = {}
        self.events: list[FaultEvent] = []

    def poll(self, site: str, **context) -> FaultEvent | None:
        """Consult the plan at ``site``; returns the fired event or None."""
        for idx, rule in enumerate(self.rules):
            if not fnmatch.fnmatchcase(site, rule.site):
                continue
            if rule.name is not None and not fnmatch.fnmatchcase(
                str(context.get("name", "")), rule.name
            ):
                continue
            hit = self._hits.get(idx, 0) + 1
            self._hits[idx] = hit
            if hit <= rule.after:
                continue
            fires = self._fires.get(idx, 0)
            if rule.max_fires is not None and fires >= rule.max_fires:
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            self._fires[idx] = fires + 1
            event = FaultEvent(
                site=site, rule=rule, hit=hit, fire=fires + 1, context=dict(context)
            )
            self.events.append(event)
            # Only fired events reach the registry; the disarmed path never
            # gets here, preserving the zero-overhead property.
            from repro.obs import metrics

            metrics.family("repro_fault_fires_total").labels(site=site).inc()
            from repro.obs import recorder

            recorder.record(
                "fault.fire",
                severity="warn",
                site=site,
                name=rule.name,
                fire=fires + 1,
                context={k: str(v) for k, v in context.items()},
            )
            return event
        return None

    def fires(self, site: str | None = None) -> int:
        """Total faults fired (optionally only at ``site``)."""
        if site is None:
            return len(self.events)
        return sum(1 for e in self.events if e.site == site)


# ----------------------------------------------------------------------
# process-wide arming
# ----------------------------------------------------------------------
_armed: FaultPlan | None = None


def is_armed() -> bool:
    """Cheap gate every instrumented site checks before doing any work."""
    return _armed is not None


def active_plan() -> FaultPlan | None:
    """The currently armed plan, if any."""
    return _armed


def arm(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide; returns it for chaining."""
    global _armed
    _armed = plan
    return plan


def disarm() -> FaultPlan | None:
    """Remove the armed plan (no-op when none); returns the previous one."""
    global _armed
    previous = _armed
    _armed = None
    return previous


@contextmanager
def armed(plan: FaultPlan):
    """Arm ``plan`` for the block's duration, restoring the prior state."""
    global _armed
    previous = _armed
    _armed = plan
    try:
        yield plan
    finally:
        _armed = previous


def poll(site: str, **context) -> FaultEvent | None:
    """Consult the armed plan (None when disarmed or nothing fires)."""
    plan = _armed
    if plan is None:
        return None
    return plan.poll(site, **context)


def inject(site: str, default_error: type[BaseException], **context) -> None:
    """Poll ``site`` and raise the rule's error (or ``default_error``).

    The one-line form for pure raise-sites (attestation, sealing, noise);
    perturbation sites call :func:`poll` and interpret the action
    themselves.
    """
    event = poll(site, **context)
    if event is None:
        return
    error = event.rule.error if event.rule.error is not None else default_error
    raise error(f"injected fault at {site} (hit {event.hit}, fire {event.fire})")
