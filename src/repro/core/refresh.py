"""Noise management: relinearization vs SGX refresh (paper Table V, §IV-E).

After a ciphertext-ciphertext multiplication, the evaluator must shrink the
size-3 ciphertext and tame its noise.  Two routes:

* **relinearization** -- pure HE, needs evaluation keys from the key
  authority, reduces size but the multiplication noise *remains*;
* **SGX refresh** -- decrypt/re-encrypt inside the enclave: noise drops to
  fresh level and no evaluation keys exist at all, at the price of enclave
  crossings.  Batching many ciphertexts into one crossing amortizes the
  entry/exit and key-load cost (the paper's 95.55 ms single vs 23.429 ms
  amortized figure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PipelineError
from repro.he.context import Ciphertext
from repro.he.evaluator import Evaluator
from repro.he.keys import RelinKeys
from repro.sgx.enclave import EnclaveHandle


@dataclass
class RefreshOutcome:
    """One refreshed ciphertext plus bookkeeping for Table V."""

    ciphertext: Ciphertext
    method: str
    elapsed_s: float
    per_item_s: float


def _outcome(out: Ciphertext, method: str, elapsed_s: float, ct: Ciphertext) -> RefreshOutcome:
    return RefreshOutcome(
        ciphertext=out,
        method=method,
        elapsed_s=elapsed_s,
        per_item_s=elapsed_s / max(1, ct.batch_count),
    )


def relinearize_refresh(
    evaluator: Evaluator,
    ct: Ciphertext,
    relin_keys: RelinKeys,
    clock,
) -> RefreshOutcome:
    """The pure-HE route: relinearize with evaluation keys."""
    start = clock.now_s
    with clock.measure_real():
        out = evaluator.relinearize(ct, relin_keys)
    return _outcome(out, "relinearization", clock.now_s - start, ct)


def sgx_refresh(
    enclave: EnclaveHandle,
    ct: Ciphertext,
) -> RefreshOutcome:
    """The enclave route: one crossing, decrypt/re-encrypt inside."""
    clock = enclave.platform.clock
    start = clock.now_s
    out = enclave.ecall("refresh", ct)
    return _outcome(out, "sgx_refresh", clock.now_s - start, ct)


def sgx_refresh_one_by_one(
    enclave: EnclaveHandle,
    ct: Ciphertext,
) -> RefreshOutcome:
    """The unbatched strawman: one crossing *per ciphertext* (Table V's
    95.55 ms row)."""
    if not ct.batch_shape:
        return sgx_refresh(enclave, ct)
    clock = enclave.platform.clock
    start = clock.now_s
    flat = ct.reshape(-1)
    pieces = [
        enclave.ecall("refresh", flat[i : i + 1]) for i in range(flat.batch_shape[0])
    ]
    data = np.concatenate([p.data for p in pieces], axis=0)
    # Refreshed ciphertexts are size 2 even when the input was size 3.
    out = Ciphertext(ct.context, data.reshape(*ct.batch_shape, *pieces[0].data.shape[-3:]),
                     is_ntt=pieces[0].is_ntt)
    return _outcome(out, "sgx_refresh_single", clock.now_s - start, ct)


@dataclass(frozen=True)
class RefreshPolicy:
    """Decides the refresh route for a given batch size.

    With the paper's cost model, relinearization wins for lone ciphertexts
    while batched SGX refresh wins once the crossing is amortized over
    ``min_batch_for_sgx`` or more ciphertexts *and* the circuit benefits
    from the noise reset.  ``prefer_no_keys=True`` forces the SGX route
    regardless (the framework's no-TTP deployment mode).
    """

    min_batch_for_sgx: int = 4
    prefer_no_keys: bool = True

    def choose(self, batch_count: int, relin_keys_available: bool) -> str:
        if not relin_keys_available:
            return "sgx_refresh"
        if self.prefer_no_keys:
            return "sgx_refresh"
        if batch_count >= self.min_batch_for_sgx:
            return "sgx_refresh"
        return "relinearization"


def refresh(
    evaluator: Evaluator,
    ct: Ciphertext,
    enclave: EnclaveHandle | None = None,
    relin_keys: RelinKeys | None = None,
    policy: RefreshPolicy | None = None,
) -> RefreshOutcome:
    """Policy-driven refresh: route to the enclave or to relinearization.

    Raises:
        PipelineError: neither an enclave nor relinearization keys supplied.
    """
    policy = policy if policy is not None else RefreshPolicy()
    if enclave is None and relin_keys is None:
        raise PipelineError("refresh needs an enclave or relinearization keys")
    if enclave is None:
        choice = "relinearization"
    elif relin_keys is None:
        choice = "sgx_refresh"
    else:
        choice = policy.choose(ct.batch_count, relin_keys_available=True)
    if choice == "relinearization":
        return relinearize_refresh(evaluator, ct, relin_keys, _clock_of(enclave))
    return sgx_refresh(enclave, ct)


def _clock_of(enclave: EnclaveHandle | None):
    from repro.sgx.clock import SimClock

    if enclave is not None:
        return enclave.platform.clock
    return SimClock()
