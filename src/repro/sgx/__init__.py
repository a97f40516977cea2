"""SGX enclave simulator.

A functional model of the Intel SGX features the paper's framework relies
on: measured enclaves with an ECALL boundary, limited EPC memory with paging,
sealed storage, and the remote-attestation chain (report -> quote -> verification
service) used to distribute homomorphic keys without a trusted third party.

Trusted code really executes (results are genuine); the simulator accounts
the *time* SGX hardware would add on a :class:`SimClock`, using a cost model
calibrated to the inside/outside ratios the paper measured (Tables I, IV, V).

Typical usage::

    from repro.sgx import SgxPlatform, Enclave, ecall

    class Doubler(Enclave):
        @ecall
        def double(self, x: int) -> int:
            return 2 * x

    platform = SgxPlatform()
    handle = platform.load_enclave(Doubler)
    assert handle.ecall("double", 21) == 42
    print(platform.clock.snapshot())  # where the simulated time went
"""

from repro.sgx.attestation import (
    AttestationVerificationService,
    Quote,
    QuotingService,
    Report,
    VerifiedReport,
)
from repro.sgx.clock import SimClock
from repro.sgx.costmodel import (
    DEFAULT_EPC_BYTES,
    PAGE_SIZE,
    SgxCostModel,
    bare_metal_cost_model,
    paper_cost_model,
)
from repro.sgx.ecall import ecall, estimate_bytes
from repro.sgx.enclave import Enclave, EnclaveHandle, SgxPlatform
from repro.sgx.epc import EpcManager, PagingStats
from repro.sgx.measurement import Measurement, measure, measure_code
from repro.sgx.sealing import SealedBlob, SealingPolicy, seal, unseal
from repro.sgx.sidechannel import ObservedEvent, SideChannelLog

__all__ = [
    "AttestationVerificationService",
    "DEFAULT_EPC_BYTES",
    "Enclave",
    "EnclaveHandle",
    "EpcManager",
    "Measurement",
    "ObservedEvent",
    "PAGE_SIZE",
    "PagingStats",
    "Quote",
    "QuotingService",
    "Report",
    "SealedBlob",
    "SealingPolicy",
    "SgxCostModel",
    "SgxPlatform",
    "SideChannelLog",
    "SimClock",
    "VerifiedReport",
    "bare_metal_cost_model",
    "ecall",
    "estimate_bytes",
    "measure",
    "measure_code",
    "paper_cost_model",
    "seal",
    "unseal",
]
