"""Synthetic encrypted-inference traffic: seeded open-loop traces.

The serving loop (:mod:`repro.serve.loop`) is a discrete-event front end;
what it needs from a load generator is an *open-loop* arrival trace --
requests arrive when the (simulated) users decide, not when the server is
ready -- because open-loop traffic is what exposes queueing collapse: a
closed-loop generator slows down with the server and politely hides the
very p99 the SLO bench exists to measure.

Two trace shapes cover the paper's deployment story (one edge node, many
enrolled users):

* :func:`poisson_trace` -- homogeneous Poisson arrivals at ``rate_rps``,
  the steady-state "thousands of enrolled users each asking occasionally"
  regime (exponential inter-arrivals, memoryless).
* :func:`bursty_trace` -- an on/off modulated Poisson process: the rate
  alternates between ``base_rate_rps`` and ``burst_factor`` times it, the
  classic Markov-modulated approximation of flash crowds.  This is the
  trace that makes admission control earn its keep.

Every arrival carries a simulated ``user_id``, a priority class
(0 = interactive, highest), an index into the bench's pre-encrypted image
pool, and an optional hard SLO deadline (requests past it are worthless
and therefore evictable).

Determinism: a trace is a pure function of its seed and parameters -- one
``numpy`` generator, drawn in a fixed order -- so the same seed replays the
identical arrival sequence, which is what makes the SLO bench's report
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ServeError

#: Default priority-class mix: (interactive, standard, batch).
DEFAULT_PRIORITY_WEIGHTS: tuple[float, ...] = (0.15, 0.7, 0.15)


@dataclass(frozen=True)
class Arrival:
    """One request arrival in an open-loop trace.

    Attributes:
        t_s: arrival time in trace (virtual) seconds from the trace origin.
        seq: position within the trace (stable tie-break for equal times).
        user_id: simulated enrolled user issuing the request.
        model: provisioned model name the request targets.
        images: images in the request (its ciphertext batch dimension).
        priority: class 0 (interactive, highest) .. N-1 (batch, lowest).
        image_index: index into the driver's pre-encrypted image pool.
        slo_deadline_s: optional *hard* deadline, seconds after ``t_s``,
            past which the result is worthless (the loop may evict).
    """

    t_s: float
    seq: int
    user_id: int
    model: str
    images: int
    priority: int
    image_index: int
    slo_deadline_s: float | None = None


@dataclass(frozen=True)
class TrafficTrace:
    """An ordered, seeded arrival trace plus the parameters that made it."""

    arrivals: tuple[Arrival, ...]
    duration_s: float
    seed: int
    kind: str

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self):
        return iter(self.arrivals)

    @property
    def users(self) -> int:
        """Distinct simulated users appearing in the trace."""
        return len({a.user_id for a in self.arrivals})

    @property
    def rate_rps(self) -> float:
        """Realized arrival rate (requests per trace second)."""
        if self.duration_s <= 0:
            return 0.0
        return len(self.arrivals) / self.duration_s

    def shifted(self, offset_s: float) -> "TrafficTrace":
        """The same trace translated ``offset_s`` later in time.

        The shifted trace nominally spans ``[0, offset_s + duration_s)`` --
        its duration grows by the offset -- so merging it after an earlier
        phase reports the full combined horizon.
        """
        return replace(
            self,
            arrivals=tuple(
                replace(a, t_s=a.t_s + offset_s) for a in self.arrivals
            ),
            duration_s=self.duration_s + offset_s,
        )


def _check_common(rate_rps: float, duration_s: float, users: int,
                  image_pool: int, images_per_request: int,
                  priority_weights: Sequence[float]) -> None:
    if rate_rps <= 0:
        raise ServeError(f"rate_rps must be > 0, got {rate_rps}")
    if duration_s <= 0:
        raise ServeError(f"duration_s must be > 0, got {duration_s}")
    if users < 1:
        raise ServeError(f"users must be >= 1, got {users}")
    if image_pool < 1:
        raise ServeError(f"image_pool must be >= 1, got {image_pool}")
    if images_per_request < 1:
        raise ServeError(f"images_per_request must be >= 1, got {images_per_request}")
    if not priority_weights or any(w < 0 for w in priority_weights):
        raise ServeError("priority_weights must be non-empty and non-negative")
    if sum(priority_weights) <= 0:
        raise ServeError("priority_weights must sum to > 0")


def _draw_arrivals(
    rng: np.random.Generator,
    *,
    phases: Iterable[tuple[float, float, float]],
    users: int,
    model: str,
    image_pool: int,
    images_per_request: int,
    priority_weights: Sequence[float],
    slo_deadline_s: float | None,
    seq_start: int = 0,
) -> list[Arrival]:
    """Draw arrivals over piecewise-constant-rate ``(start, end, rate)``
    phases -- the shared core of the homogeneous and on/off generators."""
    weights = np.asarray(priority_weights, dtype=float)
    weights = weights / weights.sum()
    classes = np.arange(len(weights))
    arrivals: list[Arrival] = []
    seq = seq_start
    for start_s, end_s, rate in phases:
        t = start_s
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= end_s:
                break
            arrivals.append(
                Arrival(
                    t_s=float(t),
                    seq=seq,
                    user_id=int(rng.integers(0, users)),
                    model=model,
                    images=images_per_request,
                    priority=int(rng.choice(classes, p=weights)),
                    image_index=int(rng.integers(0, image_pool)),
                    slo_deadline_s=slo_deadline_s,
                )
            )
            seq += 1
    return arrivals


def poisson_trace(
    seed: int,
    *,
    rate_rps: float,
    duration_s: float,
    users: int = 1000,
    model: str = "digits",
    image_pool: int = 8,
    images_per_request: int = 1,
    priority_weights: Sequence[float] = DEFAULT_PRIORITY_WEIGHTS,
    slo_deadline_s: float | None = None,
) -> TrafficTrace:
    """Homogeneous open-loop Poisson arrivals at ``rate_rps``.

    Same seed and parameters -> the identical trace, arrival for arrival.
    """
    _check_common(rate_rps, duration_s, users, image_pool,
                  images_per_request, priority_weights)
    rng = np.random.default_rng(seed)
    arrivals = _draw_arrivals(
        rng,
        phases=[(0.0, duration_s, rate_rps)],
        users=users,
        model=model,
        image_pool=image_pool,
        images_per_request=images_per_request,
        priority_weights=priority_weights,
        slo_deadline_s=slo_deadline_s,
    )
    return TrafficTrace(tuple(arrivals), duration_s, seed, "poisson")


def bursty_trace(
    seed: int,
    *,
    base_rate_rps: float,
    burst_factor: float = 4.0,
    period_s: float,
    on_fraction: float = 0.5,
    duration_s: float,
    users: int = 1000,
    model: str = "digits",
    image_pool: int = 8,
    images_per_request: int = 1,
    priority_weights: Sequence[float] = DEFAULT_PRIORITY_WEIGHTS,
    slo_deadline_s: float | None = None,
) -> TrafficTrace:
    """On/off modulated Poisson: each ``period_s`` opens with an ON phase
    at ``base_rate_rps * burst_factor`` for ``on_fraction`` of the period,
    then relaxes to ``base_rate_rps``.

    ``burst_factor=4`` with ``on_fraction=0.5`` is the SLO bench's "4x
    burst" acceptance scenario: mean load 2.5x the base rate, peak 4x.
    """
    _check_common(base_rate_rps, duration_s, users, image_pool,
                  images_per_request, priority_weights)
    if burst_factor < 1.0:
        raise ServeError(f"burst_factor must be >= 1, got {burst_factor}")
    if period_s <= 0:
        raise ServeError(f"period_s must be > 0, got {period_s}")
    if not 0.0 < on_fraction < 1.0:
        raise ServeError(f"on_fraction must be in (0, 1), got {on_fraction}")
    rng = np.random.default_rng(seed)
    phases: list[tuple[float, float, float]] = []
    t = 0.0
    while t < duration_s:
        on_end = min(t + period_s * on_fraction, duration_s)
        phases.append((t, on_end, base_rate_rps * burst_factor))
        off_end = min(t + period_s, duration_s)
        if on_end < off_end:
            phases.append((on_end, off_end, base_rate_rps))
        t = off_end
    arrivals = _draw_arrivals(
        rng,
        phases=phases,
        users=users,
        model=model,
        image_pool=image_pool,
        images_per_request=images_per_request,
        priority_weights=priority_weights,
        slo_deadline_s=slo_deadline_s,
    )
    return TrafficTrace(tuple(arrivals), duration_s, seed, "bursty")


def merge(*traces: TrafficTrace) -> TrafficTrace:
    """Interleave traces into one time-ordered trace.

    Ordering is total and deterministic: by arrival time, then by the
    (trace, seq) origin -- equal-time arrivals from different traces never
    reorder between runs.  Sequence numbers are reassigned to the merged
    order; the merged duration is the max of the inputs'.
    """
    if not traces:
        raise ServeError("merge needs at least one trace")
    tagged = [
        (a.t_s, idx, a.seq, a)
        for idx, trace in enumerate(traces)
        for a in trace.arrivals
    ]
    tagged.sort(key=lambda item: item[:3])
    merged = tuple(
        replace(a, seq=new_seq) for new_seq, (_, _, _, a) in enumerate(tagged)
    )
    return TrafficTrace(
        merged,
        max(t.duration_s for t in traces),
        traces[0].seed,
        "+".join(t.kind for t in traces),
    )
