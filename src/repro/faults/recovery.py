"""Crash recovery: the enclave supervisor and its retry policy.

The paper's framework makes one enclave the key authority *and* plaintext
co-processor -- if it crashes mid-inference, every pipeline stalls and,
naively, the HE keys every enrolled user holds become unusable (a restarted
enclave would generate fresh ones).  The supervisor closes that gap with
the machinery a production deployment would use:

1. after ``generate_keys`` it immediately asks the enclave to *seal* its FV
   key pair (``snapshot_keys``) -- the blob is recoverable only by the same
   MRENCLAVE on the same platform, so persisting it to untrusted storage
   leaks nothing;
2. on an AEX-style crash (:class:`~repro.errors.EnclaveCrashed` -- and only
   that; a deliberate ``destroy()`` is never resurrected) it charges an
   exponential backoff to the *simulated* clock, reloads the enclave class,
   restores the sealed keys (``restore_keys``), and **re-attests** the new
   instance through the platform's quoting chain before trusting it;
3. the repaired handle re-issues the failed ECALL; enrolled users'
   ciphertexts remain decryptable because the restored key pair is
   bit-identical.

Every recovery action is recorded as a ``recovery/enclave_restart`` span on
the platform tracer, so traces show not just *that* a run degraded but what
it cost.  All timing flows through :class:`~repro.sgx.clock.SimClock` --
there are no wall-clock sleeps, which is what keeps the chaos suite
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import (
    AttestationError,
    EnclaveCrashed,
    RecoveryExhausted,
    SealingError,
)
from repro.obs import context as obs_context
from repro.obs import recorder
from repro.obs.context import TraceContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sgx.enclave import Enclave, EnclaveHandle, SgxPlatform
    from repro.sgx.measurement import Measurement
    from repro.sgx.sealing import SealedBlob, SealingPolicy


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-with-exponential-backoff policy for crashed ECALLs.

    Attributes:
        max_attempts: total tries per ECALL (first call + retries).
        backoff_s: simulated seconds charged before the first restart.
        backoff_factor: multiplier per subsequent restart.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be >= 0 with factor >= 1")

    def delay_s(self, restart: int) -> float:
        """Backoff before the ``restart``-th restart (1-based)."""
        return self.backoff_s * self.backoff_factor ** (restart - 1)


class EnclaveSupervisor:
    """A crash-aware drop-in for :class:`~repro.sgx.enclave.EnclaveHandle`.

    Exposes the same surface pipelines use (``ecall``, ``seal``/``unseal``,
    ``create_report``, ``side_channel``, ``measurement``, ``destroy``) while
    transparently restarting the enclave on injected or genuine
    :class:`~repro.errors.EnclaveCrashed` failures.  One side-channel log is
    shared across restarts so crossing accounting stays monotonic.

    Args:
        platform: the simulated SGX machine.
        enclave_class: trusted code to (re)load.
        *args, **kwargs: forwarded to the enclave constructor on every
            (re)load -- a deterministic seed here makes restarted key
            generation reproduce the fault-free keys exactly.
        trusted: False supervises a FakeSGX handle (same recovery path).
        policy: retry/backoff policy (defaults apply when omitted).
        replica: fleet replica id this supervisor runs as (0 for the
            single-enclave deployment).  Stamped as a label on the restart
            and backoff metric families so fleet restarts never alias into
            one series.
    """

    def __init__(
        self,
        platform: "SgxPlatform",
        enclave_class: type["Enclave"],
        *args: Any,
        trusted: bool = True,
        policy: RetryPolicy | None = None,
        replica: int = 0,
        **kwargs: Any,
    ) -> None:
        self._platform = platform
        self._enclave_class = enclave_class
        self._ctor_args = args
        self._ctor_kwargs = kwargs
        self._trusted = trusted
        self.policy = policy if policy is not None else RetryPolicy()
        self.replica = int(replica)
        self._handle: "EnclaveHandle" = platform.load_enclave(
            enclave_class, *args, trusted=trusted, **kwargs
        )
        self.side_channel = self._handle.side_channel
        self.restarts = 0
        self._sealed_keys: "SealedBlob | None" = None
        self._quoting = None
        self._verifier = None

    # ------------------------------------------------------------------
    # the EnclaveHandle surface
    # ------------------------------------------------------------------
    @property
    def platform(self) -> "SgxPlatform":
        return self._platform

    @property
    def trusted(self) -> bool:
        return self._handle.trusted

    @property
    def measurement(self) -> "Measurement":
        return self._handle.measurement

    @property
    def handle(self) -> "EnclaveHandle":
        """The currently live handle (changes across restarts)."""
        return self._handle

    def seal(self, data: bytes, policy: "SealingPolicy | None" = None) -> "SealedBlob":
        if policy is None:
            return self._handle.seal(data)
        return self._handle.seal(data, policy)

    def unseal(self, blob: "SealedBlob") -> bytes:
        return self._handle.unseal(blob)

    def create_report(self, user_data: bytes):
        return self._handle.create_report(user_data)

    def destroy(self) -> None:
        """Deliberate teardown -- the supervisor will NOT resurrect it."""
        self._handle.destroy()

    @property
    def sealed_keys(self) -> "SealedBlob | None":
        """The sealed FV key snapshot restarts (and fleet joins) restore
        from; ``None`` until ``generate_keys`` has run."""
        return self._sealed_keys

    def adopt_sealed_keys(self, blob: "SealedBlob") -> None:
        """Adopt a sealed key snapshot produced by another supervisor of the
        same enclave class on the same platform (sealed-key migration): this
        supervisor's own crash restarts will restore from it."""
        self._sealed_keys = blob

    # ------------------------------------------------------------------
    # the resilient ECALL path
    # ------------------------------------------------------------------
    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Issue an ECALL, restarting the enclave on crashes.

        Raises:
            RecoveryExhausted: the retry policy gave up, or a restart
                itself failed (unsealable keys, re-attestation rejected).
            EnclaveNotInitialized: the handle was deliberately destroyed.
        """
        policy = self.policy
        for attempt in range(1, policy.max_attempts + 1):
            try:
                result = self._handle.ecall(name, *args, **kwargs)
                if name == "generate_keys":
                    # Snapshot inside the retried region: a crash anywhere
                    # between keygen and snapshot re-runs keygen, which is
                    # consistent because no user has seen the keys yet.
                    self._sealed_keys = self._handle.ecall("snapshot_keys")
                return result
            except EnclaveCrashed as crash:
                if attempt >= policy.max_attempts:
                    self._exhausted(name, f"still crashing after {attempt} attempts")
                    raise RecoveryExhausted(
                        f"ECALL {name!r} still crashing after {attempt} attempts"
                    ) from crash
                try:
                    self._restart(name, attempt, crash)
                except EnclaveCrashed as restart_crash:
                    # The restart sequence itself was hit; spend an attempt
                    # and come around again if any remain.
                    if attempt + 1 >= policy.max_attempts:
                        self._exhausted(name, "restart keeps crashing")
                        raise RecoveryExhausted(
                            f"enclave restart for ECALL {name!r} keeps crashing"
                        ) from restart_crash
                except (SealingError, AttestationError) as fatal:
                    self._exhausted(name, f"unrecoverable restart: {fatal}")
                    raise RecoveryExhausted(
                        f"enclave restart for ECALL {name!r} is unrecoverable: "
                        f"{fatal}"
                    ) from fatal
        raise AssertionError("unreachable")  # pragma: no cover

    def _exhausted(self, ecall_name: str, why: str) -> None:
        """Terminal flight-recorder event (with dump, when configured)
        emitted just before a ``RecoveryExhausted`` raise."""
        recorder.terminal(
            "recovery.exhausted",
            t_s=self._platform.clock.now_s,
            ecall=ecall_name,
            replica=self.replica,
            restarts=self.restarts,
            why=why,
        )

    # ------------------------------------------------------------------
    # restart internals
    # ------------------------------------------------------------------
    def _restart(self, ecall_name: str, attempt: int, crash: EnclaveCrashed) -> None:
        """Backoff, reload, restore sealed keys, re-attest -- as one traced
        recovery action."""
        restart = self.restarts + 1
        with self._platform.tracer.span(
            "recovery/enclave_restart",
            kind="span",
            side_channel=self.side_channel,
            ecall=ecall_name,
            attempt=attempt,
            restart=restart,
            replica=self.replica,
            error=str(crash),
        ):
            from repro.obs import metrics

            # Both families carry the replica label: in a fleet, restarts of
            # different replicas must never alias into one series (the delta
            # a dashboard or delta-sync reads off a single series would
            # otherwise mix independent replicas' backoff budgets).
            metrics.family("repro_recovery_enclave_restarts_total").labels(
                ecall=ecall_name, replica=str(self.replica)
            ).inc()
            metrics.family("repro_recovery_backoff_seconds_total").labels(
                replica=str(self.replica)
            ).inc(self.policy.delay_s(restart))
            recorder.record(
                "recovery.enclave_restart",
                severity="warn",
                t_s=self._platform.clock.now_s,
                ecall=ecall_name,
                attempt=attempt,
                restart=restart,
                replica=self.replica,
            )
            self._platform.clock.charge(self.policy.delay_s(restart), "fault_backoff")
            self._handle.destroy()
            handle = self._platform.load_enclave(
                self._enclave_class,
                *self._ctor_args,
                trusted=self._trusted,
                **self._ctor_kwargs,
            )
            # Keep one log across generations so crossing deltas read by
            # open tracer spans stay monotonic.
            handle.side_channel = self.side_channel
            self.side_channel.record("restart", self._enclave_class.__name__)
            self._handle = handle
            self.restarts = restart
            if self._sealed_keys is not None:
                nonce = b"enclave-restart|%d" % restart
                self._handle.ecall("restore_keys", self._sealed_keys, nonce)
                self._reattest(nonce)

    def _reattest(self, nonce: bytes) -> None:
        """Prove the restarted instance is the same code on the same
        platform before trusting it with traffic (Fig. 2 flow, locally)."""
        from repro.sgx.attestation import AttestationVerificationService, QuotingService

        if self._quoting is None:
            self._quoting = QuotingService(self._platform)
            self._verifier = AttestationVerificationService()
            self._verifier.register_platform(self._quoting)
        report = self._handle.create_report(nonce)
        quote = self._quoting.quote(report)
        self._verifier.verify(
            quote, expected_mrenclave=self._handle.measurement.mrenclave
        )


class FleetManager:
    """N supervised enclave replicas sharing one HE key pair.

    The structural unlock for scaling out: a single supervised enclave caps
    both throughput (one flush in flight) and availability (one crash domain).
    The fleet keeps the paper's trust story intact while multiplying the
    enclave:

    * **Key authority.**  Replica 0's enclave generates the FV key pair and
      seals a snapshot (exactly the single-enclave supervisor flow).  The
      *authority* is thereafter the live replica with the lowest id.
    * **Sealed-key migration.**  A joining replica runs the same enclave
      class on the same platform, so the authority's sealed snapshot is
      recoverable inside it (MRENCLAVE + platform-bound sealing); the join
      protocol is ``restore_keys`` (unseal + in-enclave attest) followed by
      a quote verification against the *authority's* MRENCLAVE, over the
      same attestation chain user enrollment uses.  The host never sees key
      material -- only the sealed blob and public quotes transit.
    * **Routing.**  ``route()`` implements the least-loaded pick over the
      per-model routing table with a deterministic tie-break (cumulative
      dispatched images, then lowest replica id), so seeded serving runs
      assign requests to replicas reproducibly.
    * **Failover.**  ``retire()`` removes a dead replica from rotation; the
      scheduler's flush path re-dispatches an in-flight batch to a surviving
      replica.  Because every replica holds the bit-identical key pair, a
      failed-over request decrypts to bit-identical logits.

    Args:
        platform: the simulated SGX machine all replicas load on.
        enclave_class: trusted code, (re)loaded per replica.
        *args, **kwargs: forwarded to each enclave constructor (a fixed
            seed here makes every replica's keygen deterministic).
        replicas: initial fleet size (>= 1); replicas beyond the first join
            via sealed-key migration during :meth:`generate_keys`.
        trusted / policy: as for :class:`EnclaveSupervisor`.
    """

    def __init__(
        self,
        platform: "SgxPlatform",
        enclave_class: type["Enclave"],
        *args: Any,
        replicas: int = 1,
        trusted: bool = True,
        policy: RetryPolicy | None = None,
        **kwargs: Any,
    ) -> None:
        if replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        self._platform = platform
        self._enclave_class = enclave_class
        self._ctor_args = args
        self._ctor_kwargs = kwargs
        self._trusted = trusted
        self._policy = policy
        self._target = int(replicas)
        self._supervisors: dict[int, EnclaveSupervisor] = {}
        self._retired: dict[int, str] = {}
        self._dispatched_images: dict[int, int] = {}
        self._models: list[str] = []
        self._next_replica_id = 0
        self.key_generation = 0
        self.joins = 0
        self._quoting = None
        self._verifier = None
        self._spawn_replica()  # replica 0: the initial key authority

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    @property
    def platform(self) -> "SgxPlatform":
        return self._platform

    def live_replicas(self) -> list[int]:
        """Ids of replicas currently in rotation, ascending."""
        return sorted(self._supervisors)

    def retired_replicas(self) -> dict[int, str]:
        """Retired replica ids mapped to the cause that removed them."""
        return dict(self._retired)

    @property
    def size(self) -> int:
        return len(self._supervisors)

    @property
    def authority_id(self) -> int:
        """The current key authority: the live replica with the lowest id."""
        if not self._supervisors:
            raise RecoveryExhausted(
                "the fleet has no live replicas left "
                f"(retired: {sorted(self._retired)})"
            )
        return min(self._supervisors)

    @property
    def authority(self) -> EnclaveSupervisor:
        return self._supervisors[self.authority_id]

    def replica(self, replica_id: int | None = None) -> EnclaveSupervisor:
        """The supervisor for ``replica_id`` (the authority when None)."""
        if replica_id is None:
            return self.authority
        supervisor = self._supervisors.get(replica_id)
        if supervisor is None:
            raise RecoveryExhausted(
                f"replica {replica_id} is not in rotation "
                f"(live: {self.live_replicas()})"
            )
        return supervisor

    def _spawn_replica(self) -> int:
        replica_id = self._next_replica_id
        self._next_replica_id += 1
        self._supervisors[replica_id] = EnclaveSupervisor(
            self._platform,
            self._enclave_class,
            *self._ctor_args,
            trusted=self._trusted,
            policy=self._policy,
            replica=replica_id,
            **self._ctor_kwargs,
        )
        self._dispatched_images[replica_id] = 0
        self._sync_gauge()
        return replica_id

    # ------------------------------------------------------------------
    # keys: authority generation and sealed-key migration
    # ------------------------------------------------------------------
    def generate_keys(self):
        """Generate the fleet key pair on the authority, then bring the
        fleet to its target size via sealed-key migration joins."""
        # Control-plane work gets its own derived context so key
        # provisioning spans stay attributable alongside request spans.
        with obs_context.activate(
            TraceContext.derive(
                "fleet:control",
                self.key_generation + 1,
                parent_id="fleet/generate_keys",
            )
        ):
            public = self.authority.ecall("generate_keys")
            self.key_generation += 1
            while self.size < self._target:
                self.add_replica()
        return public

    def add_replica(self) -> int:
        """Join one new replica through the sealed-key migration protocol.

        Load a fresh supervised enclave of the same class, restore the
        authority's sealed key snapshot inside it (the unseal succeeds only
        for the same MRENCLAVE on the same platform), then verify the new
        instance's quote against the authority's MRENCLAVE before admitting
        it to the routing table.

        Raises:
            SealingError: the snapshot does not unseal in the new replica.
            AttestationError: the join quote fails verification.
            RecoveryExhausted: keys were never generated.
        """
        blob = self.authority.sealed_keys
        if blob is None:
            raise RecoveryExhausted(
                "cannot join a replica before generate_keys: the authority "
                "holds no sealed key snapshot"
            )
        replica_id = self._spawn_replica()
        supervisor = self._supervisors[replica_id]
        nonce = b"fleet-join|%d|%d" % (self.key_generation, replica_id)
        # Joins triggered outside generate_keys (failover repair, scale-up)
        # derive their own control context; nested joins inherit.
        join_context = (
            None
            if obs_context.current()
            else TraceContext.derive(
                "fleet:join",
                self.joins + 1,
                parent_id=f"fleet/replica_join-{replica_id}",
            )
        )
        with obs_context.activate(join_context), self._platform.tracer.span(
            "fleet/replica_join",
            kind="span",
            replica=replica_id,
            authority=self.authority_id,
            key_generation=self.key_generation,
        ):
            try:
                supervisor.ecall("restore_keys", blob, nonce)
                self._verify_join(supervisor, nonce)
            except BaseException:
                # A replica that failed its join never enters rotation.
                del self._supervisors[replica_id]
                del self._dispatched_images[replica_id]
                self._sync_gauge()
                raise
            supervisor.adopt_sealed_keys(blob)
        self.joins += 1
        from repro.obs import metrics

        metrics.family("repro_fleet_joins_total").labels(replica=str(replica_id)).inc()
        return replica_id

    def _verify_join(self, supervisor: EnclaveSupervisor, nonce: bytes) -> None:
        """Quote-verify a joining replica against the *authority's* code
        identity -- a replica running different code must not join, even
        though its own measurement would self-verify."""
        from repro.sgx.attestation import AttestationVerificationService, QuotingService

        if self._quoting is None:
            self._quoting = QuotingService(self._platform)
            self._verifier = AttestationVerificationService()
            self._verifier.register_platform(self._quoting)
        report = supervisor.create_report(nonce)
        quote = self._quoting.quote(report)
        self._verifier.verify(
            quote, expected_mrenclave=self.authority.measurement.mrenclave
        )

    def rotate_keys(self):
        """Generate a fresh fleet key pair and re-migrate it to every live
        replica.  Sessions enrolled under the previous generation can no
        longer decrypt new results -- the client SDK's session pinning
        detects exactly this on reconnect."""
        public = self.authority.ecall("generate_keys")
        self.key_generation += 1
        blob = self.authority.sealed_keys
        for replica_id in self.live_replicas():
            if replica_id == self.authority_id:
                continue
            supervisor = self._supervisors[replica_id]
            nonce = b"fleet-join|%d|%d" % (self.key_generation, replica_id)
            supervisor.ecall("restore_keys", blob, nonce)
            self._verify_join(supervisor, nonce)
            supervisor.adopt_sealed_keys(blob)
        return public

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def register_model(self, model: str) -> None:
        """Add a model to the routing table (all live replicas serve it:
        model weights live host-side, so any replica's enclave can run its
        activation stage)."""
        if model not in self._models:
            self._models.append(model)

    def routing_table(self) -> dict[str, tuple[int, ...]]:
        """Per-model routing table: which live replicas serve each model."""
        live = tuple(self.live_replicas())
        return {model: live for model in self._models}

    def route(
        self,
        model: str,
        *,
        busy: "frozenset[int] | set[int] | tuple[int, ...]" = (),
        exclude: "frozenset[int] | set[int] | tuple[int, ...]" = (),
    ) -> int | None:
        """Least-loaded live replica for ``model``, or None when all are
        busy/excluded.  Load is cumulative dispatched images; ties break on
        the lowest replica id, so seeded runs route identically."""
        candidates = [
            replica_id
            for replica_id in self.live_replicas()
            if replica_id not in busy and replica_id not in exclude
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda rid: (self._dispatched_images[rid], rid),
        )

    def note_dispatch(self, replica_id: int, model: str, images: int) -> None:
        """Account one dispatched flush against a replica's load."""
        self._dispatched_images[replica_id] += int(images)
        from repro.obs import metrics

        metrics.family("repro_fleet_dispatch_images_total").labels(
            model=model, replica=str(replica_id)
        ).inc(int(images))

    def dispatched_images(self) -> dict[int, int]:
        """Cumulative images dispatched per live replica (the load signal
        behind :meth:`route`)."""
        return {rid: self._dispatched_images[rid] for rid in self.live_replicas()}

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def kill_replica(self, replica_id: int) -> None:
        """Simulate host-level loss of one replica: its handle is destroyed
        (subsequent ECALLs raise ``EnclaveNotInitialized``) but it stays in
        rotation until a dispatch observes the failure and retires it --
        exactly the information a real fleet has."""
        self.replica(replica_id).destroy()

    def retire(self, replica_id: int, cause: BaseException | str) -> None:
        """Remove a dead replica from rotation (idempotent)."""
        supervisor = self._supervisors.pop(replica_id, None)
        if supervisor is None:
            return
        self._retired[replica_id] = str(cause)
        self._dispatched_images.pop(replica_id, None)
        self._sync_gauge()
        from repro.obs import metrics

        metrics.family("repro_fleet_retirements_total").labels(
            replica=str(replica_id)
        ).inc()
        recorder.record(
            "fleet.retire",
            severity="error",
            t_s=self._platform.clock.now_s,
            replica=replica_id,
            cause=str(cause),
            live_replicas=len(self._supervisors),
        )
        with self._platform.tracer.span(
            "fleet/replica_retired", kind="span", replica=replica_id,
            error=str(cause),
        ):
            pass

    def _sync_gauge(self) -> None:
        from repro.obs import metrics

        metrics.family("repro_fleet_replicas").set(len(self._supervisors))
