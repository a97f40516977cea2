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

