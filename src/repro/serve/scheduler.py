"""Packed request scheduling: the edge server's serving layer.

The paper's deployment story (Sections IV + VII) is one SGX edge node
serving many enrolled users, yet a naive facade pays the full per-pixel HE
cost once per request.  Packing (Section VIII) is the throughput lever: a
request is one image per polynomial, and the flush stacks ``n // (H*W)``
of them per ciphertext, so conv runs once per ciphertext instead of once
per image.  Packing is host-side homomorphic work, not an enclave crossing;
from the activation crossing on, a flush is the direct path's chain, one
polynomial per image.

This scheduler turns that lever into a serving discipline:

* **Coalescing.**  Concurrent requests for the same model accumulate in a
  per-model bucket and are flushed as ONE packed pipeline pass when the
  bucket reaches the packing capacity or on explicit
  :meth:`~RequestScheduler.drain`.  This synchronous intake is
  capacity-only: *time-based* coalescing (windows, priorities, SLO
  deadlines) is owned by :class:`~repro.serve.loop.ServingLoop`, which
  queues the same :class:`_QueuedRequest` record and executes through the
  same :meth:`~RequestScheduler.run_batch`.
* **Legality.**  Cross-user packing is sound in this deployment because the
  enclave is the HE key authority (Section IV-A): every enrolled user holds
  the same key pair, so their ciphertexts are mutually compatible.  The
  host folds them homomorphically; only the one activation crossing
  (:meth:`InferenceEnclave.activation_pool`, which also computes fc and
  re-encrypts one result ciphertext per request) sees a pixel or logit in
  the clear, inside the enclave.
* **Backpressure.**  The queue is bounded; a full queue rejects new work
  with :class:`~repro.errors.QueueFullError` instead of buffering without
  limit.  Unknown models and requests larger than the packing capacity are
  likewise rejected up front with typed errors.
* **Observability.**  Every flush emits an ``EdgeServer/PackedServe``
  pipeline span (pack -> conv -> sgx_activation_pool) plus
  one ``serve/request`` child span per request carrying its queue wait and
  the queue depth it observed at submit, all on the platform's
  :class:`~repro.obs.Tracer`.

Queue waits on this path are in *simulated* seconds
(:class:`~repro.sgx.clock.SimClock`), the repository's timing currency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import faults
from repro.errors import (
    BatchTooLargeError,
    EnclaveNotInitialized,
    KeyMismatchError,
    QueueFullError,
    RecoveryExhausted,
    RequestFailedError,
    ResponseNotReady,
    ServeError,
    UnknownModelError,
)
# Unused here since the flush runs through repro.graph; stays bound because
# benchmarks/e2e/spans.py (read-only) wraps this module attribute by name.
from repro.he.batching import pack_coefficients  # noqa: F401
from repro.he.context import Ciphertext
from repro.obs import metrics, recorder
from repro.obs import context as obs_context
from repro.obs.context import TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.server import EdgeServer, ServedResult

#: Scheme label stamped on packed-flush traces and results.
PACKED_SCHEME = "EdgeServer/PackedServe"


@dataclass
class ServeConfig:
    """Scheduler policy knobs.

    Attributes:
        max_queue_depth: bound on queued (unflushed) requests across all
            models; submissions beyond it raise
            :class:`~repro.errors.QueueFullError`.
        max_batch: images per packed flush; ``None`` means the ring
            degree (the parameter set's polynomial degree).  A flush folds
            its images ``n // (H*W)`` per ciphertext.
    """

    max_queue_depth: int = 64
    max_batch: int | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ServeError("max_queue_depth must be >= 1")
        if self.max_batch is not None and self.max_batch < 1:
            raise ServeError("max_batch must be >= 1 (or None for the ring degree)")

    def capacity(self, poly_degree: int) -> int:
        """Images per flush on a ring of ``poly_degree`` coefficients."""
        return min(self.max_batch or poly_degree, poly_degree)


@dataclass
class ServeStats:
    """Monotonic counters a load generator or test can read off."""

    submitted: int = 0
    served: int = 0
    failed: int = 0
    flushes: int = 0
    retried_requests: int = 0
    isolations: int = 0
    isolated_requests: int = 0
    packed_images: int = 0
    rejected_queue_full: int = 0
    rejected_oversized: int = 0
    rejected_unknown_model: int = 0
    rejected_malformed: int = 0
    peak_queue_depth: int = 0


class PendingResponse:
    """Future-like handle for one submitted request.

    Resolves when the request's batch is flushed; :meth:`result` then
    returns the per-request :class:`~repro.core.server.ServedResult` (still
    encrypted -- only the user's session can decrypt it).
    """

    def __init__(self, request_id: int, model: str) -> None:
        self.request_id = request_id
        self.model = model
        self._result: "ServedResult | None" = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        return self._result is not None or self._error is not None

    def result(self) -> "ServedResult":
        """The served result.

        Raises:
            ResponseNotReady: the batch has not been flushed yet -- force
                it with ``drain()`` (or ``run()`` the serving loop).
        """
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise ResponseNotReady(
                f"request {self.request_id} ({self.model!r}) is still queued; "
                "drain() the scheduler (or run() the serving loop) to flush "
                "its batch"
            )
        return self._result

    def _resolve(self, result: "ServedResult") -> None:
        self._result = result

    def _fail(self, error: BaseException) -> None:
        self._error = error


@dataclass
class _QueuedRequest:
    """One queued request, from admission to its ``serve/request`` span.

    Both front ends queue this record and hand it to :meth:`RequestScheduler.
    run_batch` unchanged.  ``enqueued_at`` is in the owner's timing currency
    (SimClock seconds here, virtual seconds under the loop); ``flush_by`` /
    ``slo_deadline_at`` are the loop's coalescing and hard-SLO deadlines and
    stay None on the synchronous path, which has no time-based policy.
    """

    request_id: int
    model: str
    ct: Ciphertext
    batch: int
    enqueued_at: float
    queue_depth_at_submit: int
    response: PendingResponse
    context: TraceContext | None = None
    flush_by: float | None = None
    slo_deadline_at: float | None = None


class RequestScheduler:
    """Coalesces encrypted requests into packed hybrid pipeline passes.

    Args:
        server: the :class:`~repro.core.server.EdgeServer` whose models,
            evaluator and enclave serve the batches.
        config: scheduling policy (a default :class:`ServeConfig` if None).
    """

    def __init__(self, server: "EdgeServer", config: ServeConfig | None = None) -> None:
        self.server = server
        self.config = config if config is not None else ServeConfig()
        self.capacity = self.config.capacity(server.params.poly_degree)
        self.stats = ServeStats()
        self._queues: dict[str, list[_QueuedRequest]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # queue state
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Queued (unflushed) requests across all models."""
        return sum(len(bucket) for bucket in self._queues.values())

    def pending_images(self, model_name: str) -> int:
        """Images currently coalescing for ``model_name``."""
        return sum(r.batch for r in self._queues.get(model_name, ()))

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def validate_request(self, model_name: str, ct: Ciphertext) -> int:
        """Typed request validation shared by :meth:`submit` and the
        event-driven :class:`~repro.serve.loop.ServingLoop`.

        Every rejection increments the matching :class:`ServeStats` counter
        and the ``repro_serve_rejected_total`` family before raising, so
        rejection accounting is complete no matter which front end admitted
        the request.

        Returns:
            the request's image count (its batch dimension).

        Raises:
            UnknownModelError: ``model_name`` was never provisioned.
            ServeError: the ciphertext is not a non-empty ``(B, C)`` image
                batch with this model's channel count, or was encrypted
                under different parameters (``malformed``).  The image size
                is the model's own (``UserSession.encrypt`` refuses any
                other), so nothing here depends on ``H x W``.
            BatchTooLargeError: the request alone exceeds the capacity.
        """
        if model_name not in self.server.models():
            self.stats.rejected_unknown_model += 1
            self._count_rejection("unknown_model")
            raise UnknownModelError(
                f"unknown model {model_name!r}; provisioned: {self.server.models()}"
            )
        try:
            self.server.context.check_same(ct.context)
        except KeyMismatchError as exc:
            # A ValueError, not a ServeError: left unmapped it escapes the
            # serving loop's typed-rejection handler and strands the ticket.
            raise self._malformed(
                f"request ciphertext was encrypted under foreign parameters: {exc}"
            ) from exc
        # Admitted unchecked, a wrong shape dies mid-flush and isolates its
        # batch-mates.
        channels = self.server.model(model_name).input_shape[0]
        if len(ct.batch_shape) != 2 or ct.batch_shape[1] != channels:
            raise self._malformed(
                f"requests must be (B, {channels}) image ciphertexts for model "
                f"{model_name!r}, got batch shape {ct.batch_shape}"
            )
        batch = int(ct.batch_shape[0])
        if batch < 1:
            raise self._malformed("request ciphertext has an empty batch")
        if batch > self.capacity:
            self.stats.rejected_oversized += 1
            self._count_rejection("oversized")
            raise BatchTooLargeError(
                f"request of {batch} images exceeds the packing capacity "
                f"{self.capacity} (lanes: {self.server.params.poly_degree})"
            )
        return batch

    @staticmethod
    def _count_rejection(reason: str) -> None:
        metrics.family("repro_serve_rejected_total").labels(reason=reason).inc()

    def _malformed(self, message: str) -> ServeError:
        self.stats.rejected_malformed += 1
        self._count_rejection("malformed")
        return ServeError(message)

    def submit(
        self, model_name: str, ct: Ciphertext, *, context: TraceContext | None = None
    ) -> PendingResponse:
        """Enqueue one encrypted request; flushes immediately if it fills
        the model's packing capacity.

        Args:
            model_name: a provisioned model.
            ct: ``(B, C)`` image ciphertexts from ``UserSession.encrypt``
                (what :meth:`EdgeServer.infer` takes); usually ``B == 1``.
            context: trace context naming the request in the process-wide
                trace tree; when None a deterministic fallback is derived
                from the request id, so every flush span is attributable.

        Raises:
            UnknownModelError: ``model_name`` was never provisioned.
            BatchTooLargeError: the request alone exceeds the capacity.
            QueueFullError: the bounded queue is at ``max_queue_depth``.
            ServeError: the ciphertext is not a ``(B, C)`` image batch for
                this model.
        """
        batch = self.validate_request(model_name, ct)
        # The depth this request actually observed on arrival: captured once
        # at entry, before any capacity-triggered early flush below can
        # empty the bucket out from under it.
        depth_at_entry = self.queue_depth
        if depth_at_entry >= self.config.max_queue_depth:
            self.stats.rejected_queue_full += 1
            self._count_rejection("queue_full")
            raise QueueFullError(
                f"queue is at its bound of {self.config.max_queue_depth} "
                "requests; drain or retry later"
            )

        # A request that would overflow the open batch closes it first, so
        # earlier requests are never starved past capacity.
        if self.pending_images(model_name) + batch > self.capacity:
            self._flush_model(model_name)

        response = PendingResponse(self._next_id, model_name)
        if context is None:
            context = TraceContext.derive(
                f"scheduler:{model_name}", self._next_id,
                parent_id=f"scheduler/submit-{self._next_id}",
            )
        request = _QueuedRequest(
            request_id=self._next_id,
            model=model_name,
            ct=ct,
            batch=batch,
            enqueued_at=self.server.platform.clock.now_s,
            queue_depth_at_submit=depth_at_entry,
            response=response,
            context=context,
        )
        self._next_id += 1
        self._queues.setdefault(model_name, []).append(request)
        self.stats.submitted += 1
        self.stats.peak_queue_depth = max(self.stats.peak_queue_depth, self.queue_depth)
        metrics.family("repro_serve_requests_total").labels(model=model_name).inc()
        metrics.family("repro_serve_queue_depth").set(self.queue_depth)
        if self.pending_images(model_name) >= self.capacity:
            self._flush_model(model_name)
        return response

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def drain(self, model_name: str | None = None) -> int:
        """Flush everything queued (or one model's bucket); returns the
        number of requests served."""
        served = 0
        targets = [model_name] if model_name is not None else list(self._queues)
        for name in targets:
            if self._queues.get(name):
                served += self._flush_model(name)
        return served

    def _flush_model(self, model_name: str) -> int:
        """Run one packed hybrid pass over a model's queued requests
        and resolve each request with its slice of the encrypted logits.

        Never raises and never leaves a request queued: the bucket is popped
        up front, and a flush that dies resolves *every* popped request --
        either by re-running it in isolation (one poisoned request must not
        sink the batch) or by failing it with a causal
        :class:`~repro.errors.RequestFailedError`.  A permanently stuck
        :class:`~repro.errors.ResponseNotReady` is therefore impossible.
        """
        requests = self._queues.pop(model_name, [])
        if not requests:
            return 0
        served = 0
        for request, outcome in self.run_batch(model_name, requests):
            if isinstance(outcome, BaseException):
                request.response._fail(outcome)
            else:
                request.response._resolve(outcome)
                served += 1
        metrics.family("repro_serve_queue_depth").set(self.queue_depth)
        return served

    def run_batch(
        self,
        model_name: str,
        requests: "list[_QueuedRequest]",
        *,
        flushed_at: float | None = None,
        replica: int | None = None,
        generation: int | None = None,
    ) -> "list[tuple[_QueuedRequest, ServedResult | BaseException]]":
        """Execute one packed flush over ``requests`` and account for it.

        The execution half of :meth:`_flush_model`, shared with the
        event-driven :class:`~repro.serve.loop.ServingLoop`: runs the packed
        pass, fails it over to a surviving replica or falls back to
        per-request isolation when it dies, and records the flush/latency/occupancy stats
        and metrics -- but touches no queue state and resolves no response.
        Each request comes back paired with either its
        :class:`~repro.core.server.ServedResult` or the typed
        :class:`~repro.errors.RequestFailedError` to fail it with; the
        caller decides when to deliver them.

        When the server runs an enclave fleet, the flush executes on one
        replica (``replica``, or the fleet's least-loaded pick).  Replica
        *loss* -- an unrecoverable :class:`~repro.errors.RecoveryExhausted`
        or a destroyed handle's :class:`~repro.errors.EnclaveNotInitialized`
        -- retires the replica and **fails the whole batch over** to a
        surviving replica; because every replica restored the same sealed
        key pair, the survivor's logits are bit-identical.  Only when no
        survivor remains does the flush fall back to per-request isolation.

        Args:
            flushed_at: timestamp (in the caller's timing currency) that
                queue waits are measured against; defaults to the simulated
                clock, which is what the synchronous scheduler path wants.
            replica: fleet replica to execute on (the serving loop routes
                explicitly; None lets the fleet pick least-loaded).
            generation: the serving loop's flush generation, stamped on the
                flush trace and recorder events (None outside the loop).
        """
        tracer = self.server.platform.tracer
        clock = self.server.platform.clock
        fleet = self.server.fleet
        if replica is None:
            replica = fleet.route(model_name)
        flush_start = clock.now_s
        images = sum(r.batch for r in requests)
        tried: list[int] = []
        while True:
            if replica is not None:
                event = faults.poll(
                    "serve.fleet.replica", name=str(replica), model=model_name
                )
                if event is not None:
                    # Host-level replica loss at dispatch: the flush is
                    # already committed to this replica, so its first
                    # enclave crossing below dies and must fail over.
                    fleet.kill_replica(replica)
                fleet.note_dispatch(replica, model_name, images)
            try:
                results = self._run_packed(
                    model_name, requests, flushed_at=flushed_at,
                    replica=replica, generation=generation,
                )
                break
            except (EnclaveNotInitialized, RecoveryExhausted) as exc:
                survivor = None
                if replica is not None:
                    survivor = fleet.route(model_name, exclude=(*tried, replica))
                if survivor is None:
                    return self._isolate(
                        model_name, requests, exc, flushed_at=flushed_at,
                        replica=replica, generation=generation,
                    )
                fleet.retire(replica, exc)
                tried.append(replica)
                with tracer.span(
                    "recovery/replica_failover",
                    kind="span",
                    model=model_name,
                    from_replica=replica,
                    to_replica=survivor,
                    requests=len(requests),
                    error=str(exc),
                ):
                    metrics.family("repro_fleet_failovers_total").labels(
                        model=model_name
                    ).inc()
                # Retries are accounted under their own counter: the
                # latency histogram observes each resolved request exactly
                # once (_account_served), never once per attempt.
                self.stats.retried_requests += len(requests)
                metrics.family("repro_fleet_retried_requests_total").labels(
                    model=model_name
                ).inc(len(requests))
                recorder.record(
                    "fleet.failover",
                    severity="warn",
                    t_s=clock.now_s,
                    model=model_name,
                    from_replica=replica,
                    to_replica=survivor,
                    requests=len(requests),
                    generation=generation,
                )
                replica = survivor
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                return self._isolate(
                    model_name, requests, exc, flushed_at=flushed_at,
                    replica=replica, generation=generation,
                )
        self.stats.flushes += 1
        self._account_served(model_name, results, clock.now_s - flush_start, images)
        return list(zip(requests, results))

    def _account_served(
        self, model_name: str, results: "list[ServedResult]", compute_s: float,
        images: int,
    ) -> None:
        """Account one successful packed pass (a flush or an isolated
        re-run): exactly one latency sample per resolved request and phase --
        failover attempts retry the whole batch without observing anything,
        so the sample covers every attempt's compute without duplicating the
        request -- and one occupancy sample per pass."""
        self.stats.served += len(results)
        self.stats.packed_images += images
        latency = metrics.family("repro_serve_request_latency_seconds")
        for served in results:
            latency.labels(model=model_name, phase="queue").observe(served.queue_wait_s)
            latency.labels(model=model_name, phase="compute").observe(compute_s)
            latency.labels(model=model_name, phase="e2e").observe(
                served.queue_wait_s + compute_s
            )
        metrics.family("repro_serve_batch_occupancy_ratio").labels(
            model=model_name
        ).observe(images / self.capacity)

    def _isolate(
        self,
        model_name: str,
        requests: "list[_QueuedRequest]",
        exc: BaseException,
        *,
        flushed_at: float | None = None,
        replica: int | None = None,
        generation: int | None = None,
    ) -> "list[tuple[_QueuedRequest, ServedResult | BaseException]]":
        """Recover from a dead packed flush by re-running each request as
        its own single-request pass; requests that still fail map to a typed
        :class:`~repro.errors.RequestFailedError` chaining the underlying
        cause, so callers never hang on ``result()``.

        Isolated re-runs are counted as ``isolated_requests`` -- never as
        ``flushes`` -- and emit the same per-request latency and occupancy
        observations the happy path does, so occupancy and latency
        distributions stay truthful under faults.
        """
        tracer = self.server.platform.tracer
        clock = self.server.platform.clock
        self.stats.isolations += 1
        recorder.record(
            "serve.isolation",
            severity="warn",
            t_s=clock.now_s,
            model=model_name,
            requests=len(requests),
            error=type(exc).__name__,
            generation=generation,
        )
        outcomes: "list[tuple[_QueuedRequest, ServedResult | BaseException]]" = []
        with tracer.span(
            "recovery/request_isolation",
            kind="span",
            model=model_name,
            requests=len(requests),
            error=str(exc),
        ):
            for request in requests:
                cause: BaseException = exc
                if len(requests) > 1:
                    # Injected faults are counted per-site, so the poisoned
                    # request keeps failing while its batch-mates recover.
                    rerun_start = clock.now_s
                    try:
                        served = self._run_packed(
                            model_name, [request], flushed_at=flushed_at,
                            replica=replica, generation=generation,
                        )[0]
                        outcomes.append((request, served))
                        self.stats.isolated_requests += 1
                        self._account_served(
                            model_name, [served], clock.now_s - rerun_start,
                            request.batch,
                        )
                        continue
                    except Exception as single_exc:  # noqa: BLE001
                        cause = single_exc
                failure = RequestFailedError(
                    f"request {request.request_id} ({model_name!r}) failed "
                    f"during its packed flush: {cause}"
                )
                failure.__cause__ = cause
                outcomes.append((request, failure))
                self.stats.failed += 1
                metrics.family("repro_serve_requests_failed_total").labels(
                    model=model_name
                ).inc()
                recorder.record(
                    "serve.request_failed",
                    severity="error",
                    t_s=clock.now_s,
                    model=model_name,
                    request_id=request.request_id,
                    error=type(cause).__name__,
                    generation=generation,
                )
        return outcomes

    def _run_packed(
        self,
        model_name: str,
        requests: list[_QueuedRequest],
        *,
        flushed_at: float | None = None,
        replica: int | None = None,
        generation: int | None = None,
    ) -> "list[ServedResult]":
        """One packed pipeline pass; returns one result per request.

        Pure with respect to scheduler state -- no queue or stats mutation,
        no response resolution -- so callers may retry it safely.

        ``flushed_at`` overrides the flush timestamp queue waits are
        measured against: the serving loop passes its event-queue time so
        waits come out in the loop's deterministic virtual currency, while
        the default (the simulated clock) keeps the synchronous scheduler
        path bit-identical to its historical behavior.

        ``replica`` selects which fleet replica's supervised enclave runs
        the enclave stages (the fleet authority when None); every replica
        holds the same migrated key pair, so the choice never changes the
        decrypted logits.
        """
        from repro.core.server import ServedResult

        server = self.server
        tracer = server.platform.tracer
        enclave = server.fleet.replica(replica)
        total = sum(r.batch for r in requests)
        # Requests share the enclave's key pair, so their ciphertexts fold as
        # one (total, C) image batch -- which is never built: the fold node
        # reads each request where it lies, so nothing flush-sized is copied
        # between submit and the fold.
        parts = [r.ct.to_ntt() for r in requests]
        if flushed_at is None:
            flushed_at = server.platform.clock.now_s

        contexts = [r.context for r in requests]
        trace_attrs: dict = {}
        trace_ids = [c.trace_id for c in contexts if c is not None]
        if trace_ids:
            trace_attrs["trace_ids"] = trace_ids
        if generation is not None:
            trace_attrs["generation"] = generation

        def request_spans() -> None:
            for r in requests:
                request_attrs = {}
                if r.context is not None:
                    request_attrs["trace_id"] = r.context.trace_id
                    if r.context.parent_id:
                        request_attrs["trace_parent"] = r.context.parent_id
                if generation is not None:
                    request_attrs["generation"] = generation
                with tracer.span(
                    "serve/request",
                    request_id=r.request_id,
                    model=model_name,
                    queue_wait_s=flushed_at - r.enqueued_at,
                    queue_depth_at_submit=r.queue_depth_at_submit,
                    batch=r.batch,
                    replica=enclave.replica,
                    **request_attrs,
                ):
                    pass

        logits_ct, timing = server.run_graph(
            "packed",
            PACKED_SCHEME,
            model_name,
            parts,
            enclave=enclave,
            contexts=contexts,
            before_close=request_spans,
            requests=len(requests),
            lanes=self.server.params.poly_degree,
            replica=enclave.replica,
            **trace_attrs,
        )
        results = []
        offset = 0
        for r in requests:
            results.append(
                ServedResult(
                    logits_ct=logits_ct[offset : offset + r.batch],
                    timing=timing,
                    model=model_name,
                    request_id=r.request_id,
                    packed_batch=total,
                    queue_wait_s=flushed_at - r.enqueued_at,
                    replica=enclave.replica,
                    context=r.context,
                )
            )
            offset += r.batch
        return results
