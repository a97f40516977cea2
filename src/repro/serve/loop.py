"""Event-driven continuous-batching serving loop for the edge server.

:class:`~repro.serve.scheduler.RequestScheduler` gives the edge server slot
packing, but its synchronous intake flushes on capacity or ``drain()``
only: it has no notion of time, no admission control, and nothing answers
"what p99 queue wait do a thousand open-loop users see?".  This module is
the one owner of every *time-based* serving policy -- the coalescing
window, priority classes, SLO deadlines -- as a deterministic
discrete-event serving loop over the full request lifecycle:

* **Event queue.**  Arrivals, per-request deadline timers, flush
  completions and completion watchdogs live in one heap ordered by
  ``(time, sequence)``.  Time here is the loop's own *virtual* currency --
  seconds on an event timeline that advances only when events dispatch --
  so a trace replayed with the same seed produces bit-identical waits,
  occupancies and shed decisions, independent of how long the real HE
  arithmetic underneath happened to take.  (The :class:`~repro.sgx.clock.
  SimClock` still meters the real+modeled cost of every flush for traces
  and metrics; the loop's timeline is what SLO numbers are quoted in.)
* **Continuous batching.**  While one packed flush is in flight, arrivals
  keep admitting into the next slot group; the moment a flush completes,
  any group that is full -- or whose oldest coalescing deadline has
  expired -- flushes immediately, with no external crank and no fresh
  coalescing window imposed on requests that already waited.
* **Admission control.**  Every arrival gets a queue-wait *estimate*
  (in-flight remainder plus backlog flushes ahead of it, via the
  :class:`ServiceTimeModel`), not just a depth check.  Estimates past the
  admission SLO shed the request with a typed
  :class:`~repro.errors.OverloadedError` before its wait can poison the
  tail; the bounded queue sheds with
  :class:`~repro.errors.QueueFullError`.
* **Priorities and eviction.**  Three classes (0 = interactive
  .. 2 = batch).  Interactive requests are never wait-shed -- under a
  full queue they evict the lowest-priority, latest-deadline queued
  request instead.  Requests carrying a hard ``slo_deadline_s`` are
  evicted with :class:`~repro.errors.DeadlineEvictedError` as soon as no
  future flush can complete them in time.
* **Fault sites.**  ``serve.loop.timer`` (timer storms: duplicated
  deadline timers must dispatch as no-ops) and ``serve.loop.flush_done``
  (a lost completion event: the always-armed watchdog re-delivers the
  finished flush's results).  Both compose with the scheduler-level
  isolation chaos from DESIGN.md §11.

The loop queues the scheduler's own ``_QueuedRequest`` record and hands the
selected slot group straight to the shared
:meth:`~repro.serve.scheduler.RequestScheduler.run_batch` flush path, so
everything the chaos suite proves about packed flushes -- replica
failover, per-request isolation, typed failure of poisoned requests -- holds
unchanged under the loop, and predictions stay bit-identical to the
synchronous scheduler and the plaintext reference.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import faults
from repro.errors import (
    DeadlineEvictedError,
    OverloadedError,
    QueueFullError,
    ServeError,
)
from repro.obs import metrics, recorder
from repro.obs.context import TraceContext
from repro.serve.scheduler import PendingResponse, _QueuedRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import EdgeServer
    from repro.he.context import Ciphertext
    from repro.serve.scheduler import RequestScheduler
    from repro.serve.traffic import Arrival

#: Spurious timer events injected per ``serve.loop.timer`` fault fire.
TIMER_STORM_SIZE = 8

#: Priority classes: 0 = interactive (never wait-shed) .. 2 = batch.
PRIORITY_CLASSES = 3


@dataclass(frozen=True)
class ServiceTimeModel:
    """Deterministic flush-duration model on the loop's virtual timeline.

    The loop cannot use measured wall time as its timeline -- it would make
    every SLO number depend on the machine and the run -- so flush service
    time is modeled: a fixed per-flush cost (the pipeline stages' setup
    plus the flush's enclave crossing) plus a
    per-image slope (the marginal slot's share of the HE arithmetic).  The
    defaults are on the scale the paper's cost model charges a packed
    smoke-config flush, which the wall-clock benchmark measures at tens of
    times that (``serve.loop.model_flush_ratio``): the timeline pins the
    admission *policy*, it does not predict throughput.
    """

    base_s: float = 4e-3
    per_image_s: float = 5e-4

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.per_image_s < 0:
            raise ServeError("service model needs base_s > 0 and per_image_s >= 0")

    def flush_s(self, images: int) -> float:
        """Modeled duration of one packed flush of ``images`` images."""
        return self.base_s + self.per_image_s * images


@dataclass
class LoopConfig:
    """Serving-loop policy knobs.

    Attributes:
        window_s: default coalescing deadline for admitted requests (the
            longest a request waits for batch-mates while the server idles).
        max_queue_depth: bound on admitted-but-unflushed requests;
            admissions beyond it shed (or evict, for interactive class).
        admit_wait_slo_s: admission SLO -- arrivals whose queue-wait
            estimate exceeds it are shed with ``OverloadedError`` (the
            interactive class 0 is exempt).
        watchdog_grace_s: extra virtual seconds past a flush's modeled
            completion before the watchdog re-delivers its results.
        service_model: the flush-duration model for the virtual timeline.
    """

    window_s: float = 0.010
    max_queue_depth: int = 256
    admit_wait_slo_s: float = 0.25
    watchdog_grace_s: float = 0.005
    service_model: ServiceTimeModel = field(default_factory=ServiceTimeModel)

    def __post_init__(self) -> None:
        if self.window_s < 0:
            raise ServeError("window_s must be >= 0")
        if self.max_queue_depth < 1:
            raise ServeError("max_queue_depth must be >= 1")
        if self.admit_wait_slo_s <= 0:
            raise ServeError("admit_wait_slo_s must be > 0")
        if self.watchdog_grace_s <= 0:
            raise ServeError("watchdog_grace_s must be > 0")


@dataclass
class LoopStats:
    """Monotonic counters over the loop's lifetime."""

    arrivals: int = 0
    admitted: int = 0
    rejected: int = 0
    shed_overload: int = 0
    shed_queue_full: int = 0
    evicted: int = 0
    served: int = 0
    failed: int = 0
    flushes: int = 0
    packed_images: int = 0
    lost_completions: int = 0
    recovered_completions: int = 0
    stale_events: int = 0
    peak_queue_depth: int = 0


class LoopTicket(PendingResponse):
    """A request's future under the serving loop.

    Extends :class:`~repro.serve.scheduler.PendingResponse` with the
    open-loop metadata the SLO bench aggregates.  Terminal states: a
    :class:`~repro.core.server.ServedResult`, or one typed error --
    ``OverloadedError`` / ``QueueFullError`` (shed at admission),
    ``DeadlineEvictedError`` (evicted from the queue),
    ``RequestFailedError`` (its flush died), or the scheduler's validation
    errors.  A ticket never resolves twice and never hangs: every admitted
    request is owned by exactly one queue entry or in-flight flush, each of
    which delivers exactly one outcome.
    """

    def __init__(
        self,
        request_id: int,
        model: str,
        *,
        arrival_s: float,
        priority: int,
        user_id: int | None,
        image_index: int | None,
    ) -> None:
        super().__init__(request_id, model)
        self.arrival_s = arrival_s
        self.priority = priority
        self.user_id = user_id
        self.image_index = image_index
        self.images = 0
        self.admitted = False
        self.shed_reason: str | None = None
        self.queue_wait_s: float | None = None
        self.completed_at_s: float | None = None

    @property
    def served(self) -> bool:
        return self._result is not None

    @property
    def error(self) -> BaseException | None:
        return self._error


@dataclass
class _Inflight:
    """One flush whose results await (virtual-time) delivery."""

    generation: int
    model: str
    outcomes: list
    started_at: float
    done_at: float
    images: int
    replica: int | None = None
    delivered: bool = False


class ServingLoop:
    """Deterministic event-driven continuous-batching front end.

    Args:
        server: the :class:`~repro.core.server.EdgeServer` whose scheduler
            executes the packed flushes (its ``ServeConfig.max_batch``
            bounds the slot group size).
        config: loop policy (a default :class:`LoopConfig` if None).

    Drive it either programmatically (:meth:`submit` then :meth:`run`) or
    from a :class:`~repro.serve.traffic.TrafficTrace` (:meth:`offer` each
    arrival, then :meth:`run`).  ``run()`` dispatches events until the heap
    drains; afterwards every ticket is resolved -- a result or a typed
    error -- because admitted requests always hold a live timer, and
    in-flight flushes always hold a completion or watchdog event.
    """

    def __init__(self, server: "EdgeServer", config: LoopConfig | None = None) -> None:
        self.server = server
        self.scheduler: "RequestScheduler" = server.scheduler
        self.config = config if config is not None else LoopConfig()
        self.capacity = self.scheduler.capacity
        self.stats = LoopStats()
        self.now_s = 0.0
        self.tickets: list[LoopTicket] = []
        self.flush_log: list[dict] = []
        self._events: list[tuple[float, int, str, tuple]] = []
        self._event_seq = 0
        self._queues: dict[str, list[_QueuedRequest]] = {}
        # One entry per flush in flight, keyed by generation.  With an
        # enclave fleet, up to one flush per live replica runs concurrently;
        # without one the dict holds at most a single entry, reproducing the
        # single-slot loop bit-for-bit.
        self._inflight: dict[int, _Inflight] = {}
        self._generation = 0
        self._next_request_id = 0

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Admitted (unflushed) requests across all models."""
        return sum(len(bucket) for bucket in self._queues.values())

    def pending_images(self, model: str) -> int:
        return sum(r.batch for r in self._queues.get(model, ()))

    # ------------------------------------------------------------------
    # fleet awareness
    # ------------------------------------------------------------------
    def _fleet_size(self) -> int:
        """Live replicas available for concurrent flushes (at size 1 the
        loop behaves exactly like its single-slot ancestor)."""
        return max(1, self.server.fleet.size)

    def _busy_replicas(self) -> set:
        return {
            fl.replica for fl in self._inflight.values() if fl.replica is not None
        }

    def _has_free_replica(self) -> bool:
        live = self.server.fleet.live_replicas()
        if not live:
            # Every replica retired: let one flush attempt through so its
            # requests resolve with typed failures instead of hanging.
            return not self._inflight
        busy = self._busy_replicas()
        return any(rid not in busy for rid in live)

    def submit(
        self,
        model: str,
        ct: "Ciphertext",
        *,
        at_s: float | None = None,
        priority: int = 1,
        user_id: int | None = None,
        image_index: int | None = None,
        slo_deadline_s: float | None = None,
        context: "TraceContext | None" = None,
    ) -> LoopTicket:
        """Schedule one request's arrival on the event timeline.

        Args:
            at_s: arrival time in loop seconds (clamped to now; default
                now) -- the admission decision happens when the arrival
                *dispatches*, against the queue state of that instant.
            priority: class ``0`` (interactive) .. ``PRIORITY_CLASSES - 1``.
            slo_deadline_s: optional hard deadline after which the result
                is worthless; such requests are evictable once hopeless.
            context: trace context naming the request in the process-wide
                trace tree (the client SDK supplies one on its requests);
                when None a deterministic fallback is derived from the
                model name and loop request id.

        Raises:
            ServeError: ``priority`` is out of range or the SLO deadline is
                not positive (caller bugs fail fast; *traffic* conditions --
                overload, malformed ciphertexts -- resolve the returned
                ticket with a typed error instead of raising here).
        """
        if not 0 <= priority < PRIORITY_CLASSES:
            raise ServeError(
                f"priority {priority} out of range [0, {PRIORITY_CLASSES})"
            )
        if slo_deadline_s is not None and slo_deadline_s <= 0:
            raise ServeError("slo_deadline_s must be > 0")
        arrival_s = self.now_s if at_s is None else max(float(at_s), self.now_s)
        ticket = LoopTicket(
            self._next_request_id,
            model,
            arrival_s=arrival_s,
            priority=priority,
            user_id=user_id,
            image_index=image_index,
        )
        if context is None:
            context = TraceContext.derive(
                f"loop:{model}", self._next_request_id,
                parent_id=f"loop/submit-{self._next_request_id}",
            )
        self._next_request_id += 1
        self.tickets.append(ticket)
        self._push(arrival_s, "arrival", (ticket, ct, slo_deadline_s, context))
        return ticket

    def offer(self, arrival: "Arrival", ct: "Ciphertext") -> LoopTicket:
        """Bridge one :class:`~repro.serve.traffic.Arrival` onto the loop."""
        return self.submit(
            arrival.model,
            ct,
            at_s=arrival.t_s,
            priority=arrival.priority,
            user_id=arrival.user_id,
            image_index=arrival.image_index,
            slo_deadline_s=arrival.slo_deadline_s,
        )

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------
    def _push(self, at_s: float, kind: str, payload: tuple) -> None:
        heapq.heappush(self._events, (at_s, self._event_seq, kind, payload))
        self._event_seq += 1

    def run(self, until_s: float | None = None) -> int:
        """Dispatch events in timeline order; returns how many ran.

        With ``until_s`` given, only events at or before it dispatch (and
        the loop's clock advances no further); otherwise the heap drains
        completely, which resolves every outstanding ticket.
        """
        dispatched = 0
        events_metric = metrics.family("repro_serve_loop_events_total")
        while self._events:
            if until_s is not None and self._events[0][0] > until_s:
                break
            at_s, _, kind, payload = heapq.heappop(self._events)
            self.now_s = max(self.now_s, at_s)
            events_metric.labels(kind=kind).inc()
            if kind == "arrival":
                self._on_arrival(*payload)
            elif kind == "timer":
                self._on_timer(*payload)
            elif kind == "flush_done":
                self._on_flush_done(payload[0], via_watchdog=False)
            else:  # watchdog
                self._on_watchdog(payload[0])
            dispatched += 1
        if until_s is not None:
            self.now_s = max(self.now_s, until_s)
        return dispatched

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def queue_wait_estimate(self, model: str, images: int) -> float:
        """Estimated queue wait an arrival of ``images`` would see now.

        In-flight remainder, plus one modeled full-capacity flush per
        backlog group ahead of the request, plus the idle coalescing window
        when nothing is in flight (the worst case for an empty server).
        This is the admission signal: it tracks *wait*, not depth, so a
        queue of large requests sheds earlier than a queue of singles.

        With a fleet of N replicas, backlog groups drain N at a time and
        the in-flight remainder only matters when every replica is busy;
        at fleet size 1 the formula reduces bit-exactly to the single-slot
        loop's estimate.
        """
        fleet_size = self._fleet_size()
        inflight = len(self._inflight)
        free_n = max(0, fleet_size - inflight)
        if free_n > 0 or not self._inflight:
            remaining = 0.0
        else:
            remaining = max(
                0.0,
                min(fl.done_at for fl in self._inflight.values()) - self.now_s,
            )
        queued = self.pending_images(model) + images
        groups_ahead = max(0, math.ceil(queued / self.capacity) - max(free_n, 1))
        estimate = remaining + math.ceil(
            groups_ahead / fleet_size
        ) * self.config.service_model.flush_s(self.capacity)
        if not self._inflight and queued < self.capacity:
            estimate += self.config.window_s
        return estimate

    def _shed(self, ticket: LoopTicket, reason: str, error: ServeError) -> None:
        ticket.shed_reason = reason
        ticket._fail(error)
        if reason == "overload":
            self.stats.shed_overload += 1
        else:
            self.stats.shed_queue_full += 1
        metrics.family("repro_serve_shed_total").labels(
            model=ticket.model, reason=reason
        ).inc()
        recorder.record(
            "serve.shed",
            severity="warn",
            t_s=self.now_s,
            model=ticket.model,
            request_id=ticket.request_id,
            reason=reason,
        )

    def _evict(self, record: _QueuedRequest, why: str) -> None:
        self._queues[record.model].remove(record)
        record.response._fail(
            DeadlineEvictedError(
                f"request {record.request_id} ({record.model!r}) evicted: {why}"
            )
        )
        self.stats.evicted += 1
        metrics.family("repro_serve_evicted_total").labels(
            model=record.model, priority=record.response.priority
        ).inc()
        recorder.record(
            "serve.evict",
            severity="warn",
            t_s=self.now_s,
            model=record.model,
            request_id=record.request_id,
            why=why,
        )

    def _eviction_candidate(self) -> _QueuedRequest | None:
        """Lowest-priority, latest-deadline queued request (never class 0)."""
        candidates = [
            r
            for bucket in self._queues.values()
            for r in bucket
            if r.response.priority > 0
        ]
        if not candidates:
            return None
        return max(
            candidates,
            key=lambda r: (r.response.priority, r.flush_by, r.request_id),
        )

    def _on_arrival(
        self,
        ticket: LoopTicket,
        ct: "Ciphertext",
        slo_deadline_s: float | None,
        context: "TraceContext | None" = None,
    ) -> None:
        self.stats.arrivals += 1
        try:
            images = self.scheduler.validate_request(ticket.model, ct)
        except ServeError as exc:
            self.stats.rejected += 1
            ticket.shed_reason = "rejected"
            ticket._fail(exc)
            return
        ticket.images = images
        estimate = self.queue_wait_estimate(ticket.model, images)
        metrics.family("repro_serve_queue_wait_estimate_seconds").labels(
            model=ticket.model
        ).observe(estimate)
        if self.queue_depth >= self.config.max_queue_depth:
            victim = self._eviction_candidate() if ticket.priority == 0 else None
            if victim is None:
                self._shed(
                    ticket,
                    "queue_full",
                    QueueFullError(
                        f"loop queue at its bound of "
                        f"{self.config.max_queue_depth} requests"
                    ),
                )
                return
            self._evict(victim, "displaced by an interactive request under a full queue")
        elif estimate > self.config.admit_wait_slo_s and ticket.priority > 0:
            self._shed(
                ticket,
                "overload",
                OverloadedError(
                    f"estimated queue wait {estimate * 1e3:.1f} ms exceeds "
                    f"the admission SLO "
                    f"{self.config.admit_wait_slo_s * 1e3:.1f} ms"
                ),
            )
            return
        record = _QueuedRequest(
            request_id=ticket.request_id,
            model=ticket.model,
            ct=ct,
            batch=images,
            enqueued_at=self.now_s,
            queue_depth_at_submit=self.queue_depth,
            response=ticket,
            context=context,
            flush_by=self.now_s + self.config.window_s,
            slo_deadline_at=(
                None if slo_deadline_s is None else self.now_s + slo_deadline_s
            ),
        )
        self._queues.setdefault(ticket.model, []).append(record)
        ticket.admitted = True
        self.stats.admitted += 1
        self.stats.peak_queue_depth = max(self.stats.peak_queue_depth, self.queue_depth)
        metrics.family("repro_serve_admitted_total").labels(
            model=ticket.model, priority=ticket.priority
        ).inc()
        recorder.record(
            "serve.admit",
            t_s=self.now_s,
            model=ticket.model,
            request_id=ticket.request_id,
            priority=ticket.priority,
            trace_id=None if context is None else context.trace_id,
        )
        self._arm_timer(record)
        if (
            self._inflight
            and record.slo_deadline_at is not None
            and not self._has_free_replica()
        ):
            # Hopelessness is decidable the moment the request queues behind
            # a fully-busy fleet: evict now rather than serve a dead result.
            self._evict_hopeless(
                ticket.model,
                min(fl.done_at for fl in self._inflight.values()),
            )
        if self._has_free_replica() and (
            self.pending_images(ticket.model) >= self.capacity
            or record.flush_by <= self.now_s
        ):
            self._start_flush(ticket.model)

    # ------------------------------------------------------------------
    # timers and watchdogs
    # ------------------------------------------------------------------
    def _arm_timer(self, record: _QueuedRequest) -> None:
        self._push(record.flush_by, "timer", (record,))
        event = faults.poll("serve.loop.timer", name=record.model)
        if event is not None:
            # Timer storm: the site duplicates this deadline timer; the
            # dispatch path must treat every duplicate as a no-op.
            for _ in range(TIMER_STORM_SIZE):
                self._push(record.flush_by, "timer", (record,))

    def _on_timer(self, record: _QueuedRequest) -> None:
        bucket = self._queues.get(record.model, [])
        if record not in bucket:
            # Already flushed, evicted, or a storm duplicate: idempotent.
            self.stats.stale_events += 1
            return
        if not self._has_free_replica():
            # Every replica is busy; the completion handler flushes overdue
            # groups the moment one frees up.
            return
        self._start_flush(record.model)

    def _on_watchdog(self, generation: int) -> None:
        fl = self._inflight.get(generation)
        if fl is None or fl.delivered:
            self.stats.stale_events += 1
            return
        # The completion event for this flush never arrived (lost to a
        # fault): deliver its results now, late but never never.
        self.stats.recovered_completions += 1
        metrics.family("repro_serve_loop_recovered_completions_total").inc()
        recorder.record(
            "serve.watchdog_recovered",
            severity="warn",
            t_s=self.now_s,
            generation=generation,
            model=fl.model,
        )
        self._on_flush_done(generation, via_watchdog=True)

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def _select_group(self, model: str) -> list[_QueuedRequest]:
        """Pop the next slot group: priority order, capacity-bounded."""
        bucket = self._queues.get(model, [])
        # Priority class first, then FIFO within a class.
        bucket.sort(key=lambda r: (r.response.priority, r.request_id))
        selected: list[_QueuedRequest] = []
        images = 0
        for record in list(bucket):
            if images + record.batch > self.capacity:
                continue
            selected.append(record)
            bucket.remove(record)
            images += record.batch
            if images >= self.capacity:
                break
        return selected

    def _evict_hopeless(self, model: str, done_at: float) -> None:
        """Evict queued requests whose hard SLO deadline no future flush
        can meet (earliest completion = this flush's end plus one more
        modeled flush)."""
        bucket = self._queues.get(model, [])
        pending = sum(r.batch for r in bucket)
        next_flush_s = self.config.service_model.flush_s(
            min(max(pending, 1), self.capacity)
        )
        earliest_completion = done_at + next_flush_s
        for record in list(bucket):
            if (
                record.slo_deadline_at is not None
                and earliest_completion > record.slo_deadline_at
            ):
                self._evict(
                    record,
                    f"earliest completion {earliest_completion * 1e3:.1f} ms "
                    f"is past its SLO deadline "
                    f"{record.slo_deadline_at * 1e3:.1f} ms",
                )

    def _start_flush(self, model: str) -> None:
        fleet = self.server.fleet
        replica = fleet.route(model, busy=self._busy_replicas())
        if replica is None and (fleet.live_replicas() or self._inflight):
            # Every live replica already has a flush in flight.
            return
        requests = self._select_group(model)
        if not requests:
            return
        started_at = self.now_s
        images = sum(r.batch for r in requests)
        for r in requests:
            r.response.queue_wait_s = started_at - r.enqueued_at
        self._generation += 1
        generation = self._generation
        recorder.record(
            "serve.flush_start",
            t_s=started_at,
            model=model,
            generation=generation,
            replica=replica,
            requests=len(requests),
            images=images,
            request_ids=[r.request_id for r in requests],
        )
        # Real HE execution happens here, at flush start, through the
        # scheduler's shared isolation-hardened path; delivery of the
        # outcomes waits for the (virtual) completion event.  The scheduler
        # may fail the batch over to a survivor mid-flush, so the replica
        # recorded as busy is the one that actually served it.
        outcomes = self.scheduler.run_batch(
            model, requests, flushed_at=started_at, replica=replica,
            generation=generation,
        )
        effective = next(
            (o.replica for _, o in outcomes if not isinstance(o, BaseException)),
            replica,
        )
        service_s = self.config.service_model.flush_s(images)
        done_at = started_at + service_s
        self._inflight[generation] = _Inflight(
            generation=generation,
            model=model,
            outcomes=outcomes,
            started_at=started_at,
            done_at=done_at,
            images=images,
            replica=effective,
        )
        self.stats.flushes += 1
        self.stats.packed_images += images
        self.flush_log.append(
            {
                "model": model,
                "started_at_s": started_at,
                "done_at_s": done_at,
                "images": images,
                "requests": len(requests),
                "occupancy": images / self.capacity,
                "replica": effective,
            }
        )
        if self._has_free_replica():
            horizon = self.now_s
        else:
            horizon = min(fl.done_at for fl in self._inflight.values())
        self._evict_hopeless(model, horizon)
        lost = faults.poll("serve.loop.flush_done", name=model)
        if lost is not None:
            self.stats.lost_completions += 1
            recorder.record(
                "serve.flush_done_lost",
                severity="warn",
                t_s=self.now_s,
                model=model,
                generation=generation,
            )
        else:
            self._push(done_at, "flush_done", (generation,))
        # The watchdog is always armed: it is the loop's liveness backstop,
        # not a fault-mode-only path.
        self._push(
            done_at + self.config.watchdog_grace_s, "watchdog", (generation,)
        )

    def _on_flush_done(self, generation: int, *, via_watchdog: bool) -> None:
        fl = self._inflight.pop(generation, None)
        if fl is None or fl.delivered:
            self.stats.stale_events += 1
            return
        fl.delivered = True
        served = failed = 0
        for request, outcome in fl.outcomes:
            ticket: LoopTicket = request.response
            ticket.completed_at_s = self.now_s
            if isinstance(outcome, BaseException):
                ticket._fail(outcome)
                self.stats.failed += 1
                failed += 1
            else:
                ticket._resolve(outcome)
                self.stats.served += 1
                served += 1
        recorder.record(
            "serve.flush_done",
            t_s=self.now_s,
            model=fl.model,
            generation=generation,
            replica=fl.replica,
            served=served,
            failed=failed,
            via_watchdog=via_watchdog,
        )
        self._maybe_continue()

    def _maybe_continue(self) -> None:
        """Continuous batching: the instant a replica frees up, flush any
        group that is full or overdue -- no fresh window for requests that
        already waited out theirs.  With a fleet, keep starting flushes
        until every free replica is used or nothing is eligible."""
        while self._has_free_replica():
            started = self.stats.flushes
            for model in sorted(self._queues):
                bucket = self._queues[model]
                if not bucket:
                    continue
                if (
                    self.pending_images(model) >= self.capacity
                    or min(r.flush_by for r in bucket) <= self.now_s
                ):
                    self._start_flush(model)
                    break
            if self.stats.flushes == started:
                return

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Aggregate SLO view over every ticket the loop has owned.

        All numbers live on the loop's virtual timeline, so a seeded trace
        reproduces this dict bit-for-bit.
        """
        import numpy as np

        waits = [t.queue_wait_s for t in self.tickets if t.served]
        occupancies = [f["occupancy"] for f in self.flush_log]
        served_images = sum(t.images for t in self.tickets if t.served)
        completions = [
            t.completed_at_s for t in self.tickets if t.completed_at_s is not None
        ]
        first_arrival = min((t.arrival_s for t in self.tickets), default=0.0)
        makespan = max(completions, default=0.0) - first_arrival
        shed = self.stats.shed_overload + self.stats.shed_queue_full
        return {
            "arrivals": self.stats.arrivals,
            "served": self.stats.served,
            "failed": self.stats.failed,
            "rejected": self.stats.rejected,
            "shed": shed,
            "shed_rate": shed / max(1, self.stats.arrivals),
            "evicted": self.stats.evicted,
            "flushes": self.stats.flushes,
            "served_images": served_images,
            "makespan_s": makespan,
            "images_per_s": served_images / makespan if makespan > 0 else 0.0,
            "replicas": self._fleet_size(),
            "occupancy_mean": float(np.mean(occupancies)) if occupancies else 0.0,
            "p50_queue_wait_s": float(np.percentile(waits, 50)) if waits else 0.0,
            "p99_queue_wait_s": float(np.percentile(waits, 99)) if waits else 0.0,
            "max_queue_wait_s": max(waits, default=0.0),
            "recovered_completions": self.stats.recovered_completions,
        }
