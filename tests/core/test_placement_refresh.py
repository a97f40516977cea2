"""Pooling placement (Fig. 6) and noise-refresh route (Table V) tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    InferenceEnclave,
    MeasuredChoice,
    PoolStrategy,
    PoolingPlacementPolicy,
    measure_placement,
    pool_with_strategy,
    relinearize_refresh,
    sgx_refresh,
    sgx_refresh_one_by_one,
)
from repro.errors import PipelineError
from repro.he import (
    Context,
    Decryptor,
    Encryptor,
    Evaluator,
    KeyGenerator,
    ScalarEncoder,
)
from repro.he.keys import PublicKey
from repro.sgx import SgxPlatform


@pytest.fixture()
def rig(hybrid_params):
    platform = SgxPlatform(platform_secret=b"\x31" * 32)
    enclave = platform.load_enclave(InferenceEnclave, hybrid_params, 9)
    enclave.ecall("generate_keys")
    context = Context(hybrid_params)
    public = enclave.ecall("get_public_key")
    public = PublicKey(context, public.p0_ntt, public.p1_ntt)
    rng = np.random.default_rng(17)
    return {
        "platform": platform,
        "enclave": enclave,
        "context": context,
        "encoder": ScalarEncoder(context),
        "encryptor": Encryptor(context, public, rng),
        "evaluator": Evaluator(context),
        "decryptor": enclave._instance._decryptor,
    }


def encrypt(rig, values):
    return rig["encryptor"].encrypt(rig["encoder"].encode(values))


def decode(rig, ct):
    return rig["encoder"].decode(rig["decryptor"].decrypt(ct))


class TestPlacementPolicy:
    def test_paper_crossover(self):
        policy = PoolingPlacementPolicy()
        assert policy.choose(2) is PoolStrategy.SGX_POOL
        assert policy.choose(3) is PoolStrategy.SGX_DIV
        assert policy.choose(6) is PoolStrategy.SGX_DIV

    def test_rejects_bad_window(self):
        with pytest.raises(PipelineError):
            PoolingPlacementPolicy().choose(0)

    def test_custom_crossover(self):
        assert PoolingPlacementPolicy(crossover_window=5).choose(4) is PoolStrategy.SGX_POOL


class TestPoolStrategies:
    @pytest.mark.parametrize("strategy", [PoolStrategy.SGX_POOL, PoolStrategy.SGX_DIV])
    def test_both_strategies_compute_the_mean(self, rig, strategy):
        values = (np.arange(16, dtype=np.int64) * 4).reshape(1, 1, 4, 4)
        ct = encrypt(rig, values)
        out = pool_with_strategy(rig["evaluator"], rig["enclave"], ct, 2, strategy)
        got = decode(rig, out)
        reference = values.reshape(1, 1, 2, 2, 2, 2).mean(axis=(3, 5))
        assert got.shape == (1, 1, 2, 2)
        assert np.abs(got - reference).max() <= 1

    def test_sgx_div_shrinks_boundary_traffic(self, rig):
        """SGXDiv ships (H/k)^2 sums instead of H^2 values: bytes crossed
        must be ~window^2 smaller, the mechanism behind Fig. 6."""
        values = np.arange(64, dtype=np.int64).reshape(1, 1, 8, 8)
        log = rig["enclave"].side_channel
        pool_with_strategy(rig["evaluator"], rig["enclave"], encrypt(rig, values), 4,
                           PoolStrategy.SGX_POOL)
        pool_events = [e for e in log.events if e.kind == "ecall"]
        full_bytes = pool_events[-1].bytes_in
        pool_with_strategy(rig["evaluator"], rig["enclave"], encrypt(rig, values), 4,
                           PoolStrategy.SGX_DIV)
        div_events = [e for e in log.events if e.kind == "ecall"]
        shrunk_bytes = div_events[-1].bytes_in
        assert shrunk_bytes * 8 < full_bytes

    def test_measure_placement_reports_both(self, rig):
        values = np.arange(64, dtype=np.int64).reshape(1, 1, 8, 8)
        choice = measure_placement(rig["evaluator"], rig["enclave"], encrypt(rig, values), 4)
        assert isinstance(choice, MeasuredChoice)
        assert choice.sgx_pool_s > 0 and choice.sgx_div_s > 0
        assert choice.best in (PoolStrategy.SGX_DIV, PoolStrategy.SGX_POOL)

    def test_large_window_favors_div(self, rig):
        """With the paper cost model, a big window makes SGXDiv win."""
        values = np.arange(144, dtype=np.int64).reshape(1, 1, 12, 12)
        choice = measure_placement(rig["evaluator"], rig["enclave"], encrypt(rig, values), 6)
        assert choice.best is PoolStrategy.SGX_DIV


class TestRefresh:
    def _squared(self, rig, value=11):
        ct = encrypt(rig, np.full(6, value, dtype=np.int64))
        return rig["evaluator"].square(ct)

    def test_sgx_refresh_resets_noise(self, rig):
        squared = self._squared(rig)
        outcome = sgx_refresh(rig["enclave"], squared)
        dec = rig["decryptor"]
        assert dec.invariant_noise_budget(outcome.ciphertext) > dec.invariant_noise_budget(squared) + 5
        assert np.array_equal(decode(rig, outcome.ciphertext), np.full(6, 121))

    def test_relinearize_refresh_keeps_value(self, rig):
        relin = rig["enclave"].ecall("generate_relin_keys")
        squared = self._squared(rig)
        outcome = relinearize_refresh(
            rig["evaluator"], squared, relin, rig["platform"].clock
        )
        assert outcome.ciphertext.size == 2
        assert np.array_equal(decode(rig, outcome.ciphertext), np.full(6, 121))

    def test_batched_refresh_amortizes(self, rig):
        """Table V: one crossing for a batch beats one crossing per item."""
        batched = sgx_refresh(rig["enclave"], self._squared(rig))
        single = sgx_refresh_one_by_one(rig["enclave"], self._squared(rig))
        assert batched.per_item_s < single.per_item_s
        assert np.array_equal(
            decode(rig, single.ciphertext), decode(rig, batched.ciphertext)
        )
