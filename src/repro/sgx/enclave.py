"""The enclave simulator: platforms, enclaves, and the trusted boundary.

An :class:`SgxPlatform` stands for one SGX-capable machine: it owns the
simulated clock, the cost model, the EPC, and the platform secrets from which
sealing and attestation keys derive.  Enclaves are Python classes deriving
from :class:`Enclave` whose ``@ecall``-decorated methods form the trusted
interface; :meth:`SgxPlatform.load_enclave` measures the class (MRENCLAVE)
and returns an :class:`EnclaveHandle` through which the untrusted host makes
ECALLs.

Every ECALL really runs -- results are genuine -- while the handle charges
the modeled SGX costs (transition, marshalling, EPC slowdown, paging) to the
platform clock and records the adversary-visible trace in the side-channel
log.  ``trusted=False`` turns a handle into the paper's *FakeSGX* control:
identical code, no enclave, no overhead.
"""

from __future__ import annotations

import os
from typing import Any

from repro import faults
from repro.errors import EnclaveCrashed, EnclaveError, EnclaveNotInitialized
from repro.obs import metrics
from repro.obs.tracer import Tracer
from repro.sgx import sealing
from repro.sgx.clock import SimClock
from repro.sgx.costmodel import SgxCostModel, paper_cost_model
from repro.sgx.ecall import estimate_bytes, is_ecall
from repro.sgx.epc import EpcManager
from repro.sgx.measurement import Measurement, measure
from repro.sgx.sidechannel import SideChannelLog


class Enclave:
    """Base class for trusted code.

    Subclass, decorate trusted entry points with
    :func:`~repro.sgx.ecall.ecall`, and load through
    :meth:`SgxPlatform.load_enclave`.  Inside ECALLs, trusted code may use
    the protected helpers below (sealing, explicit EPC working-set hints,
    report creation via the handle's platform).
    """

    def __init__(self) -> None:
        self._platform: SgxPlatform | None = None
        self._measurement: Measurement | None = None
        self._trusted = True
        self._approved_user_data: list[bytes] = []

    # ------------------------------------------------------------------
    # protected API available to trusted code
    # ------------------------------------------------------------------
    @property
    def measurement(self) -> Measurement:
        if self._measurement is None:
            raise EnclaveNotInitialized("enclave was not loaded through a platform")
        return self._measurement

    def seal(
        self, data: bytes, policy: sealing.SealingPolicy = sealing.SealingPolicy.MRENCLAVE
    ) -> sealing.SealedBlob:
        """Seal ``data`` for untrusted storage."""
        platform = self._require_platform()
        return sealing.seal(
            data,
            platform.platform_secret,
            self.measurement.mrenclave,
            self.measurement.mrsigner,
            policy,
        )

    def unseal(self, blob: sealing.SealedBlob) -> bytes:
        platform = self._require_platform()
        return sealing.unseal(
            blob,
            platform.platform_secret,
            self.measurement.mrenclave,
            self.measurement.mrsigner,
        )

    def attest(self, user_data: bytes) -> None:
        """Approve ``user_data`` for the next report (EREPORT is always
        enclave-initiated; the host cannot put words in the enclave's mouth)."""
        self._approved_user_data.append(user_data)

    def touch_working_set(self, byte_count: int) -> None:
        """Declare a transient in-enclave working set of ``byte_count`` bytes.

        Models the EPC pressure of large trusted buffers (e.g. a whole model
        held inside the enclave): pages fault in, and paging costs accrue
        when the set exceeds the EPC.  A no-op on FakeSGX instances, whose
        point is running the identical code without enclave costs.
        """
        if not self._trusted:
            return
        platform = self._require_platform()
        handle = platform.epc.allocate(byte_count)
        try:
            platform.epc.touch(handle)
        finally:
            platform.epc.free(handle)

    def epc_reserve(self, byte_count: int) -> int:
        """Reserve a *persistent* in-enclave allocation (e.g. resident model
        weights) and return its handle.  Returns 0 on FakeSGX instances."""
        if not self._trusted:
            return 0
        return self._require_platform().epc.allocate(byte_count)

    def epc_touch(self, handle: int) -> None:
        """Access every page of a persistent allocation; resident pages stay
        free, evicted pages fault back in."""
        if not self._trusted or handle == 0:
            return
        self._require_platform().epc.touch(handle)

    def _require_platform(self) -> "SgxPlatform":
        if self._platform is None:
            raise EnclaveNotInitialized("enclave was not loaded through a platform")
        return self._platform


class EnclaveHandle:
    """Untrusted-side handle: the only door into a loaded enclave."""

    def __init__(
        self,
        platform: "SgxPlatform",
        instance: Enclave,
        measurement: Measurement,
        trusted: bool = True,
    ) -> None:
        self._platform = platform
        self._instance = instance
        self.measurement = measurement
        self.trusted = trusted
        self.side_channel = SideChannelLog()
        self._destroyed = False
        self._crashed = False
        self.side_channel.record("create", type(instance).__name__)

    @property
    def platform(self) -> "SgxPlatform":
        return self._platform

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a trusted entry point, charging boundary costs.

        Args:
            name: method name on the enclave class; must be ``@ecall``.

        Raises:
            EnclaveError: unknown or undecorated method.
            EnclaveNotInitialized: the handle was destroyed.
            EnclaveCrashed: the enclave was lost (AEX); a supervisor may
                reload it, a bare handle stays unusable.
        """
        if self._destroyed:
            raise EnclaveNotInitialized("enclave handle was destroyed")
        if self._crashed:
            raise EnclaveCrashed(
                f"enclave {type(self._instance).__name__} was lost (AEX); "
                "reload it before issuing ECALLs"
            )
        method = getattr(self._instance, name, None)
        if method is None or not is_ecall(getattr(type(self._instance), name, None)):
            raise EnclaveError(
                f"{type(self._instance).__name__}.{name} is not an ECALL entry point"
            )
        if faults.is_armed():
            self._maybe_crash(name)
        clock = self._platform.clock
        model = self._platform.cost_model
        bytes_in = sum(estimate_bytes(a) for a in args) + sum(
            estimate_bytes(v) for v in kwargs.values()
        )
        with self._platform.tracer.span(
            name,
            kind="ecall",
            side_channel=self.side_channel,
            enclave=type(self._instance).__name__,
            trusted=self.trusted,
            bytes_in=bytes_in,
        ) as span:
            if self.trusted:
                clock.charge(model.transition_overhead_s(1), "sgx_transition")
                clock.charge(model.marshalling_overhead_s(bytes_in), "sgx_marshalling")
                epc_handle = self._platform.epc.allocate(bytes_in)
                try:
                    self._platform.epc.touch(epc_handle)
                    before = clock.real_s
                    with clock.measure_real():
                        result = method(*args, **kwargs)
                    clock.charge(
                        model.compute_overhead_s(clock.real_s - before), "sgx_epc_compute"
                    )
                finally:
                    self._platform.epc.free(epc_handle)
                bytes_out = estimate_bytes(result)
                clock.charge(model.marshalling_overhead_s(bytes_out), "sgx_marshalling")
            else:
                with clock.measure_real():
                    result = method(*args, **kwargs)
                bytes_out = estimate_bytes(result)
            span.attrs["bytes_out"] = bytes_out
            self.side_channel.record(
                "ecall", name, bytes_in=bytes_in, bytes_out=bytes_out
            )
            metrics.family("repro_sgx_ecall_total").labels(ecall=name).inc()
            ecall_bytes = metrics.family("repro_sgx_ecall_bytes_total")
            ecall_bytes.labels(ecall=name, direction="in").inc(bytes_in)
            ecall_bytes.labels(ecall=name, direction="out").inc(bytes_out)
        return result

    def _maybe_crash(self, name: str) -> None:
        """Consult the armed fault plan; an event here is an AEX: the
        enclave's volatile state is gone and the handle is lost until a
        supervisor reloads it."""
        event = faults.poll(
            "sgx.ecall",
            name=name,
            enclave=type(self._instance).__name__,
            trusted=self.trusted,
        )
        if event is None:
            return
        self._crashed = True
        self.side_channel.record("aex", name)
        with self._platform.tracer.span(
            "fault/sgx.ecall",
            kind="span",
            side_channel=self.side_channel,
            ecall=name,
            hit=event.hit,
            fire=event.fire,
        ):
            pass
        error = event.rule.error if event.rule.error is not None else EnclaveCrashed
        raise error(
            f"injected AEX during ECALL {name!r} "
            f"(hit {event.hit}, fire {event.fire})"
        )

    def seal(
        self,
        data: bytes,
        policy: sealing.SealingPolicy = sealing.SealingPolicy.MRENCLAVE,
    ) -> sealing.SealedBlob:
        """Seal ``data`` under this enclave's identity (EGETKEY analogue).

        Public passthrough so hosts never reach into the enclave instance;
        the blob is recoverable only by :meth:`unseal` on a handle with the
        same measurement (per ``policy``) on the same platform.
        """
        if self._destroyed:
            raise EnclaveNotInitialized("enclave handle was destroyed")
        self.side_channel.record("seal", type(self._instance).__name__, bytes_in=len(data))
        return self._instance.seal(data, policy)

    def unseal(self, blob: sealing.SealedBlob) -> bytes:
        """Recover sealed data; raises :class:`~repro.errors.SealingError`
        for blobs sealed by a different enclave identity or platform."""
        if self._destroyed:
            raise EnclaveNotInitialized("enclave handle was destroyed")
        self.side_channel.record("unseal", type(self._instance).__name__)
        return self._instance.unseal(blob)

    def create_report(self, user_data: bytes) -> "Report":
        """Produce a locally-MACed report carrying ``user_data``.

        The enclave must have approved the exact bytes via
        :meth:`Enclave.attest` (inside an ECALL) -- reports are
        enclave-initiated in real SGX, and the simulator enforces the same:
        a host cannot attest data the trusted code never produced.
        """
        from repro.sgx.attestation import Report

        if self._destroyed:
            raise EnclaveNotInitialized("enclave handle was destroyed")
        try:
            self._instance._approved_user_data.remove(user_data)
        except ValueError:
            raise EnclaveError(
                "enclave did not approve this user_data for attestation"
            ) from None
        self._platform.clock.charge(self._platform.cost_model.attestation_s, "attestation")
        self.side_channel.record("report", type(self._instance).__name__)
        return Report.create(
            self.measurement, user_data, self._platform.report_key
        )

    def destroy(self) -> None:
        self._destroyed = True


class SgxPlatform:
    """One simulated SGX machine: clock, cost model, EPC, platform secrets."""

    def __init__(
        self,
        cost_model: SgxCostModel | None = None,
        clock: SimClock | None = None,
        platform_secret: bytes | None = None,
    ) -> None:
        self.cost_model = cost_model if cost_model is not None else paper_cost_model()
        self.clock = clock if clock is not None else SimClock()
        self.platform_secret = (
            platform_secret if platform_secret is not None else os.urandom(32)
        )
        self.epc = EpcManager(self.cost_model, self.clock)
        # One tracer per machine: pipeline/stage spans opened by the host
        # and the ecall spans recorded at the trusted boundary nest in it.
        self.tracer = Tracer(self.clock)
        self._enclaves: list[EnclaveHandle] = []

    @property
    def report_key(self) -> bytes:
        """Key under which local reports are MACed (EREPORT analogue)."""
        import hashlib

        return hashlib.sha256(self.platform_secret + b"|report-key").digest()

    def load_enclave(
        self,
        enclave_class: type[Enclave],
        *args: Any,
        signer_key: bytes = b"repro-default-signer",
        trusted: bool = True,
        **kwargs: Any,
    ) -> EnclaveHandle:
        """Instantiate and measure an enclave.

        Args:
            enclave_class: the trusted code.
            *args, **kwargs: forwarded to the enclave constructor.
            signer_key: vendor signing key folded into MRSIGNER.
            trusted: False creates a *FakeSGX* handle -- same code, no
                enclave, no cost accounting (the paper's control groups).
        """
        if not issubclass(enclave_class, Enclave):
            raise EnclaveError(f"{enclave_class.__name__} does not derive from Enclave")
        instance = enclave_class(*args, **kwargs)
        m = measure(enclave_class, signer_key)
        instance._platform = self
        instance._measurement = m
        instance._trusted = trusted
        handle = EnclaveHandle(self, instance, m, trusted=trusted)
        if trusted:
            self.clock.charge(self.cost_model.transition_overhead_s(2), "sgx_create")
        self._enclaves.append(handle)
        return handle
