"""Pooling placement policy: SGXDiv vs SGXPool (paper Section VI-D, Fig. 6).

Two ways to mean-pool a ``(B, C, H, W)`` encrypted feature map with an
enclave at hand:

* **SGXPool**: ship the *whole* map into the enclave; decrypt H*W values,
  pool and divide inside.  Enclave work is constant in the window size.
* **SGXDiv**: sum each window homomorphically outside (``EncryptedSum``,
  cheap C + C adds), then ship only the ``(H/k) * (W/k)`` sums inside for
  the division.  Enclave work shrinks quadratically with the window.

The paper finds the crossover at window size 3: below it, SGXPool wins
(window sums barely shrink the map, and the per-value decrypt cost inside
SGX dominates); at 3 and above, SGXDiv wins.  ``PoolingPlacementPolicy``
encodes that rule and can also *measure* the decision at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import PipelineError
from repro.he.context import Ciphertext
from repro.he.evaluator import Evaluator
from repro.sgx.enclave import EnclaveHandle


class PoolStrategy(Enum):
    """Where an encrypted mean-pool executes."""

    SGX_POOL = "sgx_pool"  # everything inside the enclave
    SGX_DIV = "sgx_div"  # homomorphic window sum outside + division inside


@dataclass(frozen=True)
class PoolingPlacementPolicy:
    """Chooses where encrypted mean-pooling should run.

    Attributes:
        crossover_window: smallest window size for which SGXDiv is selected
            (the paper measures 3 on its hardware).
    """

    crossover_window: int = 3

    def choose(self, window: int) -> PoolStrategy:
        if window < 1:
            raise PipelineError("window must be >= 1")
        return PoolStrategy.SGX_DIV if window >= self.crossover_window else PoolStrategy.SGX_POOL


def he_window_sum(evaluator: Evaluator, ct: Ciphertext, window: int) -> Ciphertext:
    """``EncryptedSum``: the homomorphic part of SGXDiv."""
    from repro.core.heops import he_scaled_mean_pool

    return he_scaled_mean_pool(evaluator, ct, window)


def pool_with_strategy(
    evaluator: Evaluator,
    enclave: EnclaveHandle,
    ct: Ciphertext,
    window: int,
    strategy: PoolStrategy,
) -> Ciphertext:
    """Execute encrypted mean-pooling under the given placement."""
    if strategy is PoolStrategy.SGX_POOL:
        return enclave.ecall("mean_pool", ct, window)
    summed = he_window_sum(evaluator, ct, window)
    return enclave.ecall("divide", summed, window * window)


@dataclass
class MeasuredChoice:
    """Outcome of an empirical placement probe."""

    window: int
    sgx_pool_s: float
    sgx_div_s: float

    @property
    def best(self) -> PoolStrategy:
        return (
            PoolStrategy.SGX_DIV if self.sgx_div_s <= self.sgx_pool_s else PoolStrategy.SGX_POOL
        )


def measure_placement(
    evaluator: Evaluator,
    enclave: EnclaveHandle,
    ct: Ciphertext,
    window: int,
) -> MeasuredChoice:
    """Time both strategies on a live feature map and report the winner.

    Uses the platform's simulated clock, so the decision reflects modeled
    SGX costs (marshalling of the full map vs the shrunken sums), exactly
    the trade Fig. 6 plots.
    """
    clock = enclave.platform.clock
    start = clock.now_s
    pool_with_strategy(evaluator, enclave, ct, window, PoolStrategy.SGX_POOL)
    sgx_pool_s = clock.now_s - start
    start = clock.now_s
    pool_with_strategy(evaluator, enclave, ct, window, PoolStrategy.SGX_DIV)
    sgx_div_s = clock.now_s - start
    return MeasuredChoice(window=window, sgx_pool_s=sgx_pool_s, sgx_div_s=sgx_div_s)
