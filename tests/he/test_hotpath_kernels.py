"""Property and regression tests for the fused hot-path kernel layer.

Every production kernel must be *bit-identical* to the reference formulas
(:mod:`repro.he.oracle`, or the primitive a kernel composes): the stacked NTT against per-prime :class:`NttPlan`, the
lazy conditional-subtract arithmetic against full ``%``, the Garner int64
CRT lift against the object-dtype sum, the int64 FV rounding against the
object-dtype formula, the probe-based constant decrypt against full decrypt +
decode, the fused multiply-reduce (and the coefficient fold built on it)
against the composed primitives, and the RNS ciphertext multiply / relinearize against the
Python-int tensor product and digit code.  The overflow-bound regressions
pin the two exactness margins -- the GEMM transform's ``< 2^53`` limb split
and the deferred reductions' int64 term counts -- at the largest supported
configuration.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError, ParameterError
from repro.he import modmath, oracle, polyring
from repro.he.batching import pack_coefficients
from repro.he.context import Ciphertext, Context, Plaintext, TensorProduct
from repro.he.decryptor import Decryptor, decrypt_scalar_values
from repro.he.encoders import ScalarEncoder
from repro.he.encryptor import Encryptor, SymmetricEncryptor
from repro.he.evaluator import Evaluator, OperationCounter, PlainOperand
from repro.he.keys import KeyGenerator
from repro.he import ntt as ntt_module
from repro.he.ntt import NttPlan, StackedNttPlan, _limb_split
from repro.he.params import (
    EncryptionParams,
    default_parameter_options,
    small_parameter_options,
)
from repro.he.polyring import SCALE_ROUND_MAX_NUMER, AuxBasis, MixedRadix, PolyContext

N = 64
PRIMES = modmath.ntt_primes(28, N, 2)


@pytest.fixture(scope="module")
def ring():
    return PolyContext(N, PRIMES)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="module")
def oracle_ring():
    return oracle.Ring(N, PRIMES)


def _on(context, *cts):
    """The ciphertexts, carried into ``context`` unchanged."""
    return [Ciphertext(context, ct.data, ct.is_ntt) for ct in cts]


class TestStackedNttEquivalence:
    """Stacked (k, n) transforms == per-prime NttPlan, both domains."""

    @pytest.mark.parametrize("batch", [(), (1,), (5,), (3, 4), (0, 3)])
    def test_forward_matches_per_prime(self, ring, rng, batch):
        x = ring.sample_uniform(rng, *batch)
        stacked = ring.stacked.forward(x)
        expected = np.empty_like(x)
        for i, plan in enumerate(ring.plans):
            expected[..., i, :] = plan.forward(x[..., i, :])
        assert np.array_equal(stacked, expected)

    @pytest.mark.parametrize("batch", [(), (1,), (5,), (3, 4), (0, 3)])
    def test_inverse_matches_per_prime(self, ring, rng, batch):
        x = ring.sample_uniform(rng, *batch)
        stacked = ring.stacked.inverse(x)
        expected = np.empty_like(x)
        for i, plan in enumerate(ring.plans):
            expected[..., i, :] = plan.inverse(x[..., i, :])
        assert np.array_equal(stacked, expected)

    def test_roundtrip(self, ring, rng):
        x = ring.sample_uniform(rng, 7)
        assert np.array_equal(ring.stacked.inverse(ring.stacked.forward(x)), x)

    def test_ring_dispatch_matches_both_modes(self, ring, oracle_ring, rng):
        x = ring.sample_uniform(rng, 3)
        fast = ring.ntt(x)
        fast_inv = ring.intt(fast)
        slow = oracle_ring.ntt(x)
        slow_inv = oracle_ring.intt(slow)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast_inv, slow_inv)

    def test_inverse_coeff_weights_match_full_intt(self, ring, rng):
        """Probe weights compute single coefficients of the inverse NTT."""
        x = ring.sample_uniform(rng, 4)
        full = ring.intt(x)
        for index in (0, 1, ring.n // 2, ring.n - 1):
            w = ring.stacked.inverse_coeff_weights(index)  # (k, n)
            prod = x * w
            for i, p in enumerate(ring.primes):
                prod[..., i, :] %= int(p)
            coeff = np.add.reduce(prod, axis=-1) % ring.primes
            assert np.array_equal(coeff, full[..., index])


def _assert_matches_per_prime(plan: StackedNttPlan, x: np.ndarray) -> None:
    """``forward`` / ``inverse`` of ``x`` equal ``NttPlan`` per prime, and
    round-trip."""
    forward, inverse = plan.forward(x), plan.inverse(x)
    for i, p in enumerate(plan.primes):
        reference = NttPlan(plan.n, int(p))
        assert np.array_equal(forward[..., i, :], reference.forward(x[..., i, :]))
        assert np.array_equal(inverse[..., i, :], reference.inverse(x[..., i, :]))
    assert np.array_equal(plan.inverse(forward), x)


def _ntt_prime_pool(n: int) -> list[int]:
    """NTT primes of 20-31 bits for length ``n`` (one, two and three limbs),
    plus the 20-bit prime ``520193`` where it supports ``n``."""
    pool = [p for bits in (20, 24, 28, 30, 31) for p in modmath.ntt_primes(bits, n, 2)]
    if (520193 - 1) % (2 * n) == 0:
        pool.append(520193)
    return sorted(set(pool))


@st.composite
def _stacked_cases(draw):
    n = draw(st.sampled_from([2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]))
    pool = _ntt_prime_pool(n)
    primes = draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True)
    )
    block = max(1, ntt_module._BLOCK_ELEMS // n)
    batch = draw(
        st.sampled_from([(), (0, 3), (block - 1,), (block,), (block + 1,)])
    )
    fill = draw(st.sampled_from(["zero", "one", "p-1", "p//2", "random"]))
    sliced = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return n, primes, batch, fill, sliced, seed


@st.composite
def _row_cases(draw):
    n = draw(st.sampled_from([64, 256, 1024, 4096, 8192]))
    pool = [p for bits in (30, 31) for p in modmath.ntt_primes(bits, n, 3)]
    primes = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True))
    bound = draw(st.sampled_from([2, 1 << 16]))
    block = max(1, ntt_module._BLOCK_ELEMS // n)
    batch = draw(st.sampled_from([(block - 1,), (block,), (block + 1,)]))
    fill = draw(st.sampled_from(["zero", "top", "random"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, primes, bound, batch, fill, seed


def _assert_row_matches_per_prime(plan: StackedNttPlan, row: np.ndarray) -> None:
    """``forward`` of a ``(..., 1, n)`` row equals ``NttPlan.forward`` of the
    row's residues under each prime (the row is below every prime)."""
    got = plan.forward(row)
    assert got.shape == (*row.shape[:-2], plan.k, plan.n) and got.dtype == np.int64
    for i, p in enumerate(plan.primes):
        assert np.array_equal(got[..., i, :], NttPlan(plan.n, int(p)).forward(row[..., 0, :]))


class TestStackedNttProperty:
    """The GEMM transform against the butterfly oracle across sizes, prime
    widths, limb counts, block edges and memory layouts."""

    @settings(max_examples=60, deadline=None)
    @given(_stacked_cases())
    def test_matches_ntt_plan(self, case):
        n, primes, batch, fill, sliced, seed = case
        p_col = np.array(primes, dtype=np.int64)[:, None]
        shape = (*batch, len(primes), n)
        if fill == "random":
            x = np.random.default_rng(seed).integers(0, p_col, size=shape)
        else:
            fills = {"zero": 0 * p_col, "one": 0 * p_col + 1, "p-1": p_col - 1, "p//2": p_col // 2}
            x = np.broadcast_to(fills[fill], shape).copy()
        if sliced:  # every other coefficient of a twice-as-long buffer
            wide = np.zeros((*shape[:-1], 2 * n), dtype=np.int64)
            wide[..., ::2] = x
            x = wide[..., ::2]
            assert not x.flags.c_contiguous or x.size == 0
        _assert_matches_per_prime(StackedNttPlan(n, primes), x)

    @settings(max_examples=40, deadline=None)
    @given(_row_cases())
    def test_bounded_row_matches_ntt_plan(self, case):
        """A ``(..., 1, n)`` row of integers in ``[0, B)`` -- relinearize's
        base-2^16 digits -- transforms to the per-prime oracle of its
        broadcast residues, whatever its first step's limb count."""
        n, primes, bound, batch, fill, seed = case
        shape = (*batch, 1, n)
        if fill == "random":
            row = np.random.default_rng(seed).integers(0, bound, size=shape)
        else:
            row = np.full(shape, 0 if fill == "zero" else bound - 1, dtype=np.int64)
        _assert_row_matches_per_prime(StackedNttPlan(n, primes), row)

    def test_bounded_row_two_limb_case(self, rng):
        """31-bit primes at n = 8192: one limb of a 16-bit row would sum past
        2^53, so the first step takes two -- and stays exact -- while the
        second keeps the plan's three."""
        n = 8192
        plan = StackedNttPlan(n, modmath.ntt_primes(31, n, 2))
        row = rng.integers(0, 1 << 16, size=(3, 1, n))
        row[0] = (1 << 16) - 1
        assert plan._row_split(row) == (2, 16) and plan._limbs == 3
        _assert_row_matches_per_prime(plan, row)

    def test_bounded_row_outside_every_prime_is_refused(self):
        """A row is the same integers under every prime only inside ``[0,
        min prime)``: a negative value, or one at or above the smallest
        prime, raises instead of transforming different residues."""
        small, large = modmath.ntt_primes(30, N, 1)[0], modmath.ntt_primes(31, N, 1)[0]
        plan = StackedNttPlan(N, [large, small])
        row = np.zeros((2, 1, N), dtype=np.int64)
        row[1, 0, 5] = small - 1
        _assert_row_matches_per_prime(plan, row)
        for bad in (-1, small, large - 1):
            row[1, 0, 5] = bad
            with pytest.raises(ParameterError, match="same integers under every prime"):
                plan.forward(row)
        with pytest.raises(ParameterError, match="trailing shape"):
            plan.inverse(row)  # the inverse takes residues only

    def test_cryptonets_auxiliary_basis(self, square_model, rng):
        """The widest stack a workload transforms: the eight 30-bit auxiliary
        primes of the pure-HE pipeline at n = 256."""
        from repro.core import parameters_for_pipeline

        basis = Context(parameters_for_pipeline(square_model[0], 256)).aux_basis
        p_col = basis.plan.primes[:, None]
        x = rng.integers(0, p_col, size=(33, basis.plan.k, 256))
        x[0] = p_col - 1
        _assert_matches_per_prime(basis.plan, x)

    def test_bytes_do_not_depend_on_blas_threads(self):
        """Exact sums have one value: a one-thread BLAS in a fresh process
        hashes ``forward`` (of residues and of a bounded row) and the
        base-conversion GEMM to the same bytes as this process's default."""
        primes = modmath.ntt_primes(30, 1024, 2)
        targets = modmath.ntt_primes(30, 1024, 10)[2:]
        x = np.random.default_rng(7).integers(
            0, np.array(primes)[:, None], size=(40, 2, 1024)
        )
        here = hashlib.sha256(StackedNttPlan(1024, primes).forward(x).tobytes())
        here.update(MixedRadix(primes, targets).convert_centered(x).tobytes())
        here.update(StackedNttPlan(1024, primes).forward(x[:, :1] >> 14).tobytes())
        script = (
            "import hashlib, numpy as np\n"
            "from repro.he import modmath\n"
            "from repro.he.ntt import StackedNttPlan\n"
            "from repro.he.polyring import MixedRadix\n"
            "primes = modmath.ntt_primes(30, 1024, 2)\n"
            "targets = modmath.ntt_primes(30, 1024, 10)[2:]\n"
            "x = np.random.default_rng(7).integers(\n"
            "    0, np.array(primes)[:, None], size=(40, 2, 1024))\n"
            "out = hashlib.sha256(StackedNttPlan(1024, primes).forward(x).tobytes())\n"
            "out.update(MixedRadix(primes, targets).convert_centered(x).tobytes())\n"
            "out.update(StackedNttPlan(1024, primes).forward(x[:, :1] >> 14).tobytes())\n"
            "print(out.hexdigest())\n"
        )
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
        )
        single = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert single.stdout.strip() == here.hexdigest()

    def test_forward_peaks_at_its_result_plus_one_block(self, rng):
        """One block of scratch is reused by every block: a warm ``forward``
        of the workload's encrypt stack peaks at its output plus ~1 MiB (the
        butterfly loop held three copies of the tensor)."""
        primes = modmath.ntt_primes(30, 1024, 2)
        plan = StackedNttPlan(1024, primes)
        x = rng.integers(0, np.array(primes)[:, None], size=(432, 2, 1024))
        plan.forward(x[:1])  # build the tables
        tracemalloc.start()
        try:
            out = plan.forward(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * out.nbytes

    def test_tables_are_built_per_direction_on_first_use(self, rng):
        primes = modmath.ntt_primes(30, N, 2)
        plan = StackedNttPlan(N, primes)
        assert plan._tables == {}
        x = rng.integers(0, np.array(primes)[:, None], size=(2, N))
        plan.forward(x)
        assert set(plan._tables) == {False}
        plan.inverse(x)
        assert set(plan._tables) == {False, True}


    def test_plans_over_one_prime_share_tables_while_alive(self, rng):
        """Client, server and enclave contexts use the same primes: one copy
        of each prime's tables, dropped with the last plan that holds it."""
        primes = modmath.ntt_primes(30, 128, 2)
        first, second = StackedNttPlan(128, primes), StackedNttPlan(128, primes[::-1])
        x = rng.integers(0, np.array(primes)[:, None], size=(2, 128))
        first.forward(x)
        second.forward(x[::-1])
        assert first._tables[False][0] is second._tables[False][1]
        keys = [key for key in ntt_module._SHARED_TABLES if key[0] == 128]
        assert len(keys) == 2
        del first, second
        assert not any(key in ntt_module._SHARED_TABLES for key in keys)


class TestOverflowBounds:
    """Regression-pin the exactness analyses: float64 GEMM sums below 2^53,
    deferred int64 reductions below 2^63."""

    def test_largest_supported_config(self, rng):
        """31-bit primes at n=8192: the float64 GEMMs take the limb split the
        bound asks for and all-``p-1``, all-zero and random rows transform
        bit-identically to ``NttPlan`` -- exact, not refused."""
        n = 8192
        primes = modmath.ntt_primes(31, n, 3)
        plan = StackedNttPlan(n, np.array(primes, dtype=np.int64))
        x = np.stack([rng.integers(0, p, size=(3, n)) for p in primes], axis=1)
        x[0] = np.array(primes)[:, None] - 1
        x[1] = 0
        _assert_matches_per_prime(plan, x)

    def test_stacked_inverse_exact_at_31_bit_primes(self, rng):
        """Distinct 31-bit primes leave the least slack below 2^53: at
        n=2048 a two-limb split with a lifted second operand overran it in
        the inverse's last GEMM and returned wrong residues."""
        for n in (N, 2048):
            wide = PolyContext(n, modmath.ntt_primes(31, n, 3))
            x = wide.sample_uniform(rng, 5)
            x[0] = wide.primes[:, None] - 1
            expected = np.empty_like(x)
            for i, plan in enumerate(wide.plans):
                expected[..., i, :] = plan.inverse(x[..., i, :])
            assert np.array_equal(wide.stacked.inverse(x), expected)
            assert np.array_equal(wide.stacked.inverse(wide.stacked.forward(x)), x)

    def test_inexact_configuration_is_refused_at_construction(self):
        """The < 2^53 bound is evaluated once, in the constructor: a modulus
        no limb split can make exact raises instead of returning wrong
        residues (unreachable through ``NttPlan``, whose primes are < 2^31)."""
        with pytest.raises(ParameterError, match="limb split"):
            _limb_split(32, (1 << 52) + 1)
        too_wide = types.SimpleNamespace(prime=(1 << 52) + 1, _n_inv=1)
        with pytest.raises(ParameterError, match="limb split"):
            StackedNttPlan(1024, [too_wide.prime], plans=[too_wide])

    @pytest.mark.parametrize(
        "n1, p_max, expected, bound",
        [
            (32, 520193, (1, 19), None),  # a 20-bit prime: one GEMM per step
            (32, (1 << 30) - 1, (2, 15), None),  # the pipeline presets
            (64, (1 << 30) - 1, (2, 15), None),  # functional_2048 / functional_4096
            (32, (1 << 31) - 1, (3, 11), None),  # 31-bit: two limbs overrun at n=1024
            (128, (1 << 31) - 1, (3, 11), None),  # the largest supported config
            # Input-bound rows: relinearize's 16-bit digits, and a bit row.
            (16, (1 << 30) - 1, (1, 30), 1 << 16),  # the workload, n = 256: 2^50
            (32, (1 << 31) - 1, (1, 31), 1 << 16),  # n = 1024: 2^52
            (64, (1 << 31) - 1, (1, 31), 1 << 16),  # n = 4096: just below 2^53
            (128, (1 << 31) - 1, (2, 16), 1 << 16),  # n = 8192: two limbs
            (128, (1 << 31) - 1, (1, 31), 2),
        ],
    )
    def test_limb_split_is_the_fewest_limbs_below_2_53(self, n1, p_max, expected, bound):
        count, width = _limb_split(n1, p_max, bound)
        assert (count, width) == expected
        lazy = 2 * p_max - 1
        x_max = lazy if bound is None else bound - 1

        def worst(count, width):
            return n1 * x_max * ((1 << width) - 1) + (lazy << width if count > 1 else 0)

        assert worst(count, width) < 1 << 53
        if count > 1:
            fewer = count - 1
            assert worst(fewer, -(-p_max.bit_length() // fewer)) >= 1 << 53

    def test_reduce_sum_rejects_overflowing_axis(self, ring):
        terms = ring.max_sum_terms + 1
        fake = np.lib.stride_tricks.as_strided(
            np.zeros((1, ring.k, ring.n), dtype=np.int64),
            shape=(terms, ring.k, ring.n),
            strides=(0, ring.n * 8, 8),
        )
        with pytest.raises(ParameterError, match="deferred reduction overflow"):
            ring.reduce_sum(fake, axis=0)

    @pytest.mark.parametrize("bits, per_pass", [(30, 8), (31, 2)])
    def test_pointwise_mul_sum_exact_at_the_int64_margin(self, bits, per_pass):
        """All-``(p - 1)`` operands are the worst case of the deferred
        reduction: the accumulator enters every run at most ``p - 1`` and
        adds ``per_pass`` products of ``(p - 1)^2``.  The term counts sit on
        both sides of every pass boundary; the oracle is Python ints."""
        n = 16
        wide = PolyContext(n, modmath.ntt_primes(bits, n, 2))
        top = int(wide.primes.max())
        assert wide._per_pass == per_pass
        assert top - 1 + per_pass * (top - 1) ** 2 <= (1 << 63) - 1
        assert top - 1 + (per_pass + 1) * (top - 1) ** 2 > (1 << 63) - 1
        worst = np.broadcast_to((wide.primes - 1).reshape(wide.k, 1), (wide.k, n))
        assert not worst.flags.writeable
        for terms in (1, 2, per_pass, per_pass + 1, 17, 64):
            out = wide.pointwise_mul_sum([worst] * terms, [worst] * terms)
            expected = [[terms * (p - 1) ** 2 % p] * n for p in wide.primes.tolist()]
            assert out.tolist() == expected, terms

    def test_max_sum_terms_large_enough_for_layers(self, ring):
        # Any realistic conv/dense tap count is tiny next to the bound.
        assert ring.max_sum_terms >= 1 << 32


class TestLazyArithmetic:
    """Conditional-subtract add/sub and scalarized products == full ``%``."""

    def test_add_matches_reference(self, ring, oracle_ring, rng):
        a = ring.sample_uniform(rng, 6)
        b = ring.sample_uniform(rng, 6)
        fast = ring.add(a, b)
        slow = oracle_ring.add(a, b)
        assert np.array_equal(fast, slow)
        assert fast.max() < ring.primes.max()

    def test_sub_matches_reference(self, ring, oracle_ring, rng):
        a = ring.sample_uniform(rng, 6)
        b = ring.sample_uniform(rng, 6)
        fast = ring.sub(a, b)
        slow = oracle_ring.sub(a, b)
        assert np.array_equal(fast, slow)
        assert fast.min() >= 0

    def test_pointwise_mul_matches_reference(self, ring, oracle_ring, rng):
        a = ring.sample_uniform(rng, 6)
        b = ring.sample_uniform(rng, 6)
        fast = ring.pointwise_mul(a, b)
        slow = oracle_ring.pointwise_mul(a, b)
        assert np.array_equal(fast, slow)

    def test_from_signed_small_matches_reference(self, ring, oracle_ring, rng):
        raw = rng.integers(-1000, 1000, size=(5, ring.n))
        fast = ring.from_signed_small(raw)
        slow = oracle_ring.from_signed_small(raw)
        assert np.array_equal(fast, slow)

    def test_reduce_sum_matches_folded_add(self, ring, oracle_ring, rng):
        stack = ring.sample_uniform(rng, 500)
        folded = stack[0]
        for i in range(1, stack.shape[0]):
            folded = ring.add(folded, stack[i])
        assert np.array_equal(ring.reduce_sum(stack, axis=0), folded)
        assert np.array_equal(oracle_ring.reduce_sum(stack, axis=0), folded)


class TestScalarCache:
    def test_mul_scalar_uses_cached_residues(self, ring, rng):
        ring._scalar_cache.clear()
        a = ring.sample_uniform(rng, 3)
        first = ring.mul_scalar(a, 12345)
        assert 12345 in ring._scalar_cache
        cached = ring.scalar_residues(12345)
        assert cached is ring.scalar_residues(12345)
        assert not cached.flags.writeable
        assert np.array_equal(first, ring.mul_scalar(a, 12345))

    def test_mul_scalar_matches_reference(self, ring, oracle_ring, rng):
        a = ring.sample_uniform(rng, 3)
        fast = ring.mul_scalar(a, -77)
        slow = oracle_ring.mul_scalar(a, -77)
        assert np.array_equal(fast, slow)


class TestPointwiseMulSum:
    """The deferred-reduction multiply-accumulate against the composed
    ``pointwise_mul`` + ``add`` fold it replaces, term by term."""

    @staticmethod
    def _composed(ring, a, b):
        acc = ring.pointwise_mul(a[0], b[0])
        for x, y in zip(a[1:], b[1:]):
            acc = ring.add(acc, ring.pointwise_mul(x, y))
        return acc

    def test_matches_composed_primitives(self, ring, rng):
        a = ring.sample_uniform(rng, 4, 9)
        b = ring.sample_uniform(rng, 9)
        fused_out = ring.pointwise_mul_sum(np.moveaxis(a, 1, 0), b)
        composed = ring.reduce_sum(ring.pointwise_mul(a, b), axis=1)
        assert np.array_equal(fused_out, composed)

    @pytest.mark.parametrize("bits", [30, 31])
    @pytest.mark.parametrize("terms", [1, 2, 3, 8, 9, 17, 64])
    def test_multi_pass_matches_composed(self, rng, bits, terms):
        wide = PolyContext(N, modmath.ntt_primes(bits, N, 2))
        a = wide.sample_uniform(rng, terms, 3)
        b = wide.sample_uniform(rng, terms, 3)
        out = wide.pointwise_mul_sum(a, b)
        assert np.array_equal(out, self._composed(wide, a, b))
        assert out.min() >= 0 and (out < wide.primes.reshape(-1, 1)).all()

    @pytest.mark.parametrize("bits", [30, 31])
    @pytest.mark.parametrize("terms", [1, 2, 8, 9, 17])
    def test_start_enters_the_first_run(self, rng, bits, terms):
        """A canonical ``start`` is the reduced accumulator a run of
        products may enter: the sum accumulates into it in place, equal to
        ``add(start, composed)`` across every pass boundary, worst-case
        residues included."""
        wide = PolyContext(N, modmath.ntt_primes(bits, N, 2))
        a = wide.sample_uniform(rng, terms, 3)
        b = wide.sample_uniform(rng, terms, 1)
        a[0], b[0] = wide.primes[:, None] - 1, wide.primes[:, None] - 1
        start = wide.sample_uniform(rng, 3)
        start[0] = wide.primes[:, None] - 1
        expected = wide.add(start, self._composed(wide, a, np.broadcast_to(b, a.shape)))
        out = wide.pointwise_mul_sum(a, b, start=start)
        assert out is start and np.array_equal(out, expected)
        with pytest.raises(ParameterError, match="term 0.*does not broadcast"):
            wide.pointwise_mul_sum(a, b, start=start[:2].copy())

    def test_reads_rows_where_they_lie(self, ring, rng):
        """Separately allocated, strided, broadcast and read-only rows, and
        a generator of them: same bytes as the stacked array, operands
        untouched and never aliased by the result."""
        a = ring.sample_uniform(rng, 5, 3, 4)
        b = ring.sample_uniform(rng, 5)
        expected = self._composed(ring, a, b[:, None, None])
        rows = [np.array(a[0]), a[:, ::-1][1, ::-1], a[2], a[3].copy(), a[4]]
        rows[3].flags.writeable = False
        weights = [np.broadcast_to(w, (3, 4, ring.k, ring.n)) for w in b]
        before = [row.copy() for row in rows]
        out = ring.pointwise_mul_sum(rows, weights)
        assert np.array_equal(out, expected)
        assert np.array_equal(ring.pointwise_mul_sum(iter(rows), (w for w in b)), expected)
        assert all(np.array_equal(x, y) for x, y in zip(rows, before))
        assert not any(np.shares_memory(out, row) for row in rows)
        single = ring.pointwise_mul_sum(rows[3:4], b[3:4])
        assert not np.shares_memory(single, rows[3]) and single.flags.writeable

    def test_rejects_residue_axes(self, ring, rng):
        a = ring.sample_uniform(rng, 3)
        with pytest.raises(ParameterError, match="residue and coefficient"):
            ring.pointwise_mul_sum(a[0], a[0])  # rows of one element: (n,)

    def test_rejects_empty_and_unbroadcastable_terms(self, ring, rng):
        a = ring.sample_uniform(rng, 2, 3)
        with pytest.raises(ParameterError, match="at least one term"):
            ring.pointwise_mul_sum([], [])
        with pytest.raises(ParameterError, match="term 1.*does not broadcast"):
            ring.pointwise_mul_sum([a[0, :2], a[1]], [a[0, :2], a[1]])


class TestPackFold:
    """``pack_coefficients`` runs one fused multiply-and-fold per row; it
    must equal the composed ``multiply_plain`` + ``sum_batch`` of each row's
    images in data and tallies."""

    #: ``P = 256 // 64 = 4`` images per row: batches of 5 and 16 fill more
    #: than one row, a batch of 3 part of one.
    STRIDE = 64

    @staticmethod
    def _random_ct(context, rng, *batch):
        data = context.ring.sample_uniform(rng, *batch, 2)
        return Ciphertext(context, data, is_ntt=True)

    @staticmethod
    def _monomials(evaluator, context, count, rest_ndim, stride):
        coeffs = np.zeros((count, context.poly_degree), dtype=np.int64)
        coeffs[np.arange(count), stride * np.arange(count)] = 1
        operand = evaluator.transform_plain(Plaintext(context, coeffs))
        shape = (count, *([1] * rest_ndim), *operand.data.shape[-2:])
        return PlainOperand(context, operand.data.reshape(shape))

    @pytest.mark.parametrize("batch", [(5,), (16, 9), (3, 2, 4)])
    def test_fused_matches_composed_data_and_tallies(self, rng, batch):
        context = Context(small_parameter_options()[256])
        ct = self._random_ct(context, rng, *batch)
        fused_counter, composed_counter = OperationCounter(), OperationCounter()
        fused_out = pack_coefficients(Evaluator(context, fused_counter), ct, self.STRIDE)
        composed = Evaluator(context, composed_counter)
        per = context.poly_degree // self.STRIDE
        rows = -(-batch[0] // per)
        for j in range(rows):
            group = ct[j * per : (j + 1) * per]
            count = group.batch_shape[0]
            operand = self._monomials(composed, context, count, len(batch) - 1, self.STRIDE)
            row = composed.sum_batch(composed.multiply_plain(group, operand), axis=0)
            assert np.array_equal(fused_out.data[j], row.data)
        assert fused_out.is_ntt and fused_out.batch_shape == (rows, *batch[1:])
        assert fused_counter.counts == composed_counter.counts
        lanes = int(np.prod(batch[1:], dtype=np.int64))
        assert fused_counter.counts == {
            "ct_plain_mul": batch[0] * lanes,
            "ct_add": (batch[0] - rows) * lanes,
        }

    @pytest.mark.parametrize("rest", [(), (3,), (2, 4)])
    def test_unstacked_parts_fold_to_the_stacked_bytes(self, rng, rest):
        """A flush's requests -- here batches (1, 3, 2, 1), one of them a
        non-contiguous view and one read-only -- fold where they lie to the
        bytes and tallies of their concatenation, which is never built."""
        context = Context(small_parameter_options()[256])
        whole = self._random_ct(context, rng, 7, *rest)
        backing = np.repeat(whole.data[1:4], 2, axis=0)
        datas = [whole.data[:1].copy(), backing[::2], whole.data[4:6].copy(), whole.data[6:]]
        datas[2].flags.writeable = False
        assert not datas[1].flags.c_contiguous
        before = [d.copy() for d in datas]
        parts = [Ciphertext(context, d, is_ntt=True) for d in datas]
        stacked_counter, parts_counter = OperationCounter(), OperationCounter()
        stacked_out = pack_coefficients(Evaluator(context, stacked_counter), whole, self.STRIDE)
        parts_out = pack_coefficients(Evaluator(context, parts_counter), parts, self.STRIDE)
        assert parts_out.batch_shape == (2, *rest)
        assert parts_out.data.tobytes() == stacked_out.data.tobytes()
        assert parts_counter.counts == stacked_counter.counts
        assert all(np.array_equal(d, b) for d, b in zip(datas, before))
        assert not any(np.shares_memory(parts_out.data, d) for d in datas)
        # The single-request flush runs the same body and copies nothing in.
        alone = pack_coefficients(Evaluator(context), [parts[2]], self.STRIDE)
        single = pack_coefficients(Evaluator(context), parts[2], self.STRIDE)
        assert alone.data.tobytes() == single.data.tobytes()
        assert not np.shares_memory(alone.data, datas[2])

    def test_bad_parts_are_named(self, rng):
        context = Context(small_parameter_options()[256])
        evaluator = Evaluator(context)
        good = self._random_ct(context, rng, 2, 3)
        foreign = Context(small_parameter_options()[512])
        cases = {
            "at least one": ([], self.STRIDE),
            "part 1 has none": ([good, self._random_ct(context, rng)], self.STRIDE),
            "part 1 has trailing shape": (
                [good, self._random_ct(context, rng, 2, 4)], self.STRIDE
            ),
            "part 2: objects belong to different": (
                [good, good, self._random_ct(foreign, rng, 2, 3)], self.STRIDE
            ),
            "part 1 is in coefficient domain": ([good, good.to_coeff()], self.STRIDE),
            "stride of 257 exceeds the ring degree 256": ([good] * 129, 257),
        }
        for message, (parts, stride) in cases.items():
            with pytest.raises(EncodingError, match=message):
                pack_coefficients(evaluator, parts, stride)

    def test_flush_sized_fold_stays_bounded(self, rng):
        """The serving flush folds 16 requests of 288 ciphertexts at n =
        1024, k = 2 (151 MB together), 7 of 12 x 12 images per row: the fold
        allocates its 3-row output, each row accumulating in place in its
        slot, and per row one product scratch of a row's size, and nothing
        else."""
        params = EncryptionParams(
            poly_degree=1024,
            coeff_primes=tuple(modmath.ntt_primes(30, 1024, 2)),
            plain_modulus=modmath.ntt_primes(21, 1024, 1)[0],
        )
        context = Context(params)
        evaluator = Evaluator(context)
        stride = 144
        pack_coefficients(evaluator, self._random_ct(context, rng, 16, 1), stride)  # warm the memo
        parts = [self._random_ct(context, rng, 1, 288) for _ in range(16)]
        tracemalloc.start()
        try:
            out = pack_coefficients(evaluator, parts, stride)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.batch_shape == (3, 288)
        row = out.data[0].nbytes
        assert row == 288 * 4 * 1024 * 8  # 9 MiB
        assert out.data.nbytes + row <= peak < out.data.nbytes + 1.25 * row


class TestGarnerLift:
    def test_matches_bigint_centered(self, ring, rng):
        a = ring.sample_uniform(rng, 8)
        fast = ring.to_int64_centered(a)
        slow = ring.to_bigint_centered(a)
        assert np.array_equal(fast.astype(object), slow)

    def test_rejects_wide_modulus(self):
        n = 64
        primes = modmath.ntt_primes(31, n, 3)  # 93-bit q
        wide = PolyContext(n, primes)
        assert not wide.int64_lift
        with pytest.raises(ParameterError, match="int64 CRT lift"):
            wide.to_int64_centered(wide.zeros(1))


def _round_oracle(values: np.ndarray, numer: int, denom: int) -> np.ndarray:
    """The object-dtype FV rounding formula (nearest, halves away from zero)."""
    scaled = values.astype(object) * numer
    half = denom // 2
    return np.where(
        scaled >= 0, (scaled + half) // denom, -((-scaled + half) // denom)
    )


#: Every preset whose q the int64 Garner lift accepts (q < 2^62).
INT64_PRESETS = [
    params
    for params in (
        *small_parameter_options().values(),
        *default_parameter_options().values(),
    )
    if params.coeff_modulus < 1 << 62
]


class TestScaleRoundInt64:
    """int64 ``round(t * v / q)`` == the object-dtype formula, exactly."""

    @pytest.fixture(params=INT64_PRESETS, ids=lambda params: params.name)
    def preset(self, request):
        params = request.param
        return PolyContext(params.poly_degree, params.coeff_primes), params.plain_modulus

    def test_presets_cover_every_liftable_q(self):
        assert {p.name for p in INT64_PRESETS} == {"test_256", "test_512", "paper_1024"}

    def test_random_centered_values(self, preset, rng):
        ring, t = preset
        half = ring.q // 2
        values = rng.integers(-half, half + 1, size=(7, 512))
        got = ring.scale_round_int64(values, t)
        assert got.dtype == np.int64 and got.shape == values.shape
        assert np.array_equal(got.astype(object), _round_oracle(values, t, ring.q))

    @pytest.mark.parametrize("numer", ["t", SCALE_ROUND_MAX_NUMER - 1])
    def test_half_way_points_both_signs(self, preset, rng, numer):
        """``v = ((2j+1) q) / (2 numer) + {-1, 0, 1}`` straddles every rounding
        boundary -- where a quotient estimate off by one would show."""
        ring, t = preset
        numer = t if numer == "t" else numer
        q, half = ring.q, ring.q // 2
        js = np.unique(
            np.concatenate(
                [np.arange(min(numer // 2, 512)), rng.integers(0, numer // 2, size=512)]
            )
        )
        points = [0, 1, -1, half, -half]
        for j in js:
            boundary = (2 * int(j) + 1) * q // (2 * numer)
            points += [
                sign * (boundary + delta)
                for delta in (-1, 0, 1)
                for sign in (1, -1)
                if boundary + delta <= half
            ]
        values = np.array(points, dtype=np.int64)
        got = ring.scale_round_int64(values, numer)
        assert np.array_equal(got.astype(object), _round_oracle(values, numer, q))

    def test_rejects_wide_modulus(self):
        wide = PolyContext(64, modmath.ntt_primes(31, 64, 3))  # 93-bit q
        assert wide.q >= 1 << 62
        with pytest.raises(ParameterError, match="q < 2\\^62"):
            wide.scale_round_int64(np.zeros(4, dtype=np.int64), 17)

    def test_rejects_out_of_range_inputs(self, ring):
        half = ring.q // 2
        for numer in (0, -3, SCALE_ROUND_MAX_NUMER):
            with pytest.raises(ParameterError, match="numer"):
                ring.scale_round_int64(np.zeros(4, dtype=np.int64), numer)
        for bad in (half + 1, -half - 1, np.iinfo(np.int64).min):
            with pytest.raises(ParameterError, match="coefficients in"):
                ring.scale_round_int64(np.array([0, bad]), 17)

    def test_postcondition_raises_rather_than_returning_wrong_values(
        self, ring, rng, monkeypatch
    ):
        """With the numerator precondition lifted the float estimate drifts
        past one; the checked remainder must then raise, never mis-round."""
        import repro.he.polyring as polyring_mod

        monkeypatch.setattr(polyring_mod, "SCALE_ROUND_MAX_NUMER", 1 << 62)
        half = ring.q // 2
        values = rng.integers(-half, half + 1, size=4096)
        tripped = False
        for bits in range(50, 60):
            numer = (1 << bits) + 12345
            try:
                got = ring.scale_round_int64(values, numer)
            except ParameterError as exc:
                assert "remainder" in str(exc)
                tripped = True
            else:
                assert np.array_equal(
                    got.astype(object), _round_oracle(values, numer, ring.q)
                )
        assert tripped


class TestFastDecrypt:
    @pytest.fixture(scope="class")
    def deployment(self):
        params = small_parameter_options()[256]
        context = Context(params)
        keys = KeyGenerator(context, np.random.default_rng(3)).generate()
        return {
            "context": context,
            "encoder": ScalarEncoder(context),
            "encryptor": Encryptor(context, keys.public, np.random.default_rng(5)),
            "decryptor": Decryptor(context, keys.secret),
            "oracle": Decryptor(oracle.Context(params), keys.secret),
        }

    def test_decrypt_constants_matches_decode(self, deployment):
        enc = deployment["encoder"]
        values = np.arange(-12, 12).reshape(4, 6)
        ct = deployment["encryptor"].encrypt(enc.encode(values))
        fast = deployment["decryptor"].decrypt_constants(ct)
        slow = enc.decode(deployment["decryptor"].decrypt(ct))
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, values)

    def test_decrypt_scalar_values_dispatches_both_modes(self, deployment):
        enc = deployment["encoder"]
        values = np.array([7, -3, 11])
        ct = deployment["encryptor"].encrypt(enc.encode(values))
        fast = decrypt_scalar_values(deployment["decryptor"], enc, ct)
        slow = decrypt_scalar_values(deployment["oracle"], enc, ct)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, values)

    def test_decrypt_constants_rejects_non_scalar_plaintext(self, deployment):
        """A nonzero probe coefficient (``1`` or ``n/2``) is refused by both
        decrypts.  Elsewhere only the oracle's full decode refuses it: the
        probe decrypt returns the constants -- the one documented divergence
        between the oracle and production."""
        context, enc = deployment["context"], deployment["encoder"]
        n = context.poly_degree
        for probe in (1, n // 2):
            coeffs = np.zeros((3, n), dtype=np.int64)
            coeffs[:, 0] = [1, -2, 3]
            coeffs[1, probe] = 9
            ct = deployment["encryptor"].encrypt(Plaintext(context, coeffs))
            for decryptor in (deployment["decryptor"], deployment["oracle"]):
                with pytest.raises(EncodingError, match="non-constant"):
                    decrypt_scalar_values(decryptor, enc, ct)
        coeffs[1, probe] = 0
        coeffs[1, 5] = 7  # a stray at an unprobed position
        ct = deployment["encryptor"].encrypt(Plaintext(context, coeffs))
        with pytest.raises(EncodingError, match="non-constant"):
            decrypt_scalar_values(deployment["oracle"], enc, ct)
        assert decrypt_scalar_values(deployment["decryptor"], enc, ct).tolist() == [1, -2, 3]

    def test_noise_budget_matches_reference(self, deployment):
        enc = deployment["encoder"]
        ct = deployment["encryptor"].encrypt(enc.encode(np.arange(5)))
        fast = deployment["decryptor"].invariant_noise_budget(ct)
        slow = deployment["oracle"].invariant_noise_budget(ct)
        assert fast == slow


class TestFullDecryptBitIdentity:
    """``Decryptor.decrypt`` of full polynomials: int64 lift + int64 rounding
    in production, Python ints under the oracle."""

    @staticmethod
    def _deploy(params, seed):
        context = Context(params)
        keys = KeyGenerator(context, np.random.default_rng(seed)).generate()
        encryptor = Encryptor(context, keys.public, np.random.default_rng(seed + 1))
        return context, encryptor, Decryptor(context, keys.secret)

    @staticmethod
    def _oracle_of(decryptor):
        return Decryptor(oracle.Context(decryptor.context.params), decryptor.secret_key)

    @classmethod
    def _both_profiles(cls, decryptor, ct):
        fast = decryptor.decrypt(ct)
        fast_budget = decryptor.invariant_noise_budget(ct)
        reference = cls._oracle_of(decryptor)
        slow = reference.decrypt(ct)
        slow_budget = reference.invariant_noise_budget(ct)
        assert fast.coeffs.dtype == slow.coeffs.dtype == np.int64
        assert np.array_equal(fast.coeffs, slow.coeffs)
        assert fast_budget == slow_budget
        return fast

    @pytest.mark.parametrize("params", INT64_PRESETS, ids=lambda params: params.name)
    def test_size_2(self, params, rng):
        context, encryptor, decryptor = self._deploy(params, 21)
        coeffs = rng.integers(0, params.plain_modulus, size=(3, params.poly_degree))
        plain = self._both_profiles(decryptor, encryptor.encrypt(Plaintext(context, coeffs)))
        assert np.array_equal(plain.coeffs, coeffs)

    def test_size_3(self, rng):
        params = small_parameter_options()[256]
        context, encryptor, decryptor = self._deploy(params, 23)
        encoder = ScalarEncoder(context)
        a = encryptor.encrypt(encoder.encode(np.array([3, -7, 11])))
        b = encryptor.encrypt(encoder.encode(np.array([5, 9, -4])))
        product = Evaluator(context).multiply(a, b)
        assert product.size == 3
        plain = self._both_profiles(decryptor, product)
        assert np.array_equal(encoder.decode(plain), [15, -63, -44])

    def test_wide_q_falls_back_to_object_path(self, rng, monkeypatch):
        params = EncryptionParams(
            poly_degree=64,
            coeff_primes=tuple(modmath.ntt_primes(31, 64, 3)),  # 93-bit q
            plain_modulus=257,
        )
        context, encryptor, decryptor = self._deploy(params, 27)
        assert not context.ring.int64_lift

        def refuse(*_args):
            raise AssertionError("int64 rounding must not run for q >= 2^62")

        monkeypatch.setattr(PolyContext, "scale_round_int64", refuse)
        coeffs = rng.integers(0, 257, size=(2, 64))
        plain = self._both_profiles(decryptor, encryptor.encrypt(Plaintext(context, coeffs)))
        assert np.array_equal(plain.coeffs, coeffs)

    def test_check_noise_evaluates_ct_of_s_once(self, rng, monkeypatch):
        params = small_parameter_options()[256]
        context, encryptor, decryptor = self._deploy(params, 29)
        coeffs = rng.integers(0, params.plain_modulus, size=(2, params.poly_degree))
        ct = encryptor.encrypt(Plaintext(context, coeffs))
        for each in (decryptor, self._oracle_of(decryptor)):
            calls = []
            dot_ntt = each._dot_ntt
            monkeypatch.setattr(
                each, "_dot_ntt", lambda c, dot_ntt=dot_ntt, calls=calls: calls.append(1) or dot_ntt(c)
            )
            checked = each.decrypt(ct, check_noise=True)
            assert len(calls) == 1
            assert np.array_equal(checked.coeffs, coeffs)


class TestEncryptorBitIdentity:
    """Merged-NTT encryption must emit bit-identical ciphertexts."""

    @pytest.fixture(scope="class")
    def setup(self):
        params = small_parameter_options()[256]
        context = Context(params)
        keys = KeyGenerator(context, np.random.default_rng(11)).generate()
        return context, keys

    def test_public_encrypt_matches(self, setup):
        context, keys = setup
        enc = ScalarEncoder(context)
        plain = enc.encode(np.arange(10))
        fast = Encryptor(context, keys.public, np.random.default_rng(9)).encrypt(plain)
        slow = Encryptor(
            oracle.Context(context.params), keys.public, np.random.default_rng(9)
        ).encrypt(plain)
        assert np.array_equal(fast.data, slow.data)

    def test_symmetric_encrypt_matches(self, setup):
        context, keys = setup
        enc = ScalarEncoder(context)
        plain = enc.encode(np.arange(6))
        fast = SymmetricEncryptor(context, keys.secret, np.random.default_rng(9)).encrypt(plain)
        slow = SymmetricEncryptor(
            oracle.Context(context.params), keys.secret, np.random.default_rng(9)
        ).encrypt(plain)
        assert np.array_equal(fast.data, slow.data)


class TestEvaluatorAddMany:
    @pytest.fixture(scope="class")
    def setup(self):
        params = small_parameter_options()[256]
        context = Context(params)
        keys = KeyGenerator(context, np.random.default_rng(17)).generate()
        encryptor = Encryptor(context, keys.public, np.random.default_rng(19))
        encoder = ScalarEncoder(context)
        decryptor = Decryptor(context, keys.secret)
        return context, encoder, encryptor, decryptor

    def test_uniform_operands_sum_matches_reference(self, setup):
        context, encoder, encryptor, decryptor = setup
        cts = [encryptor.encrypt(encoder.encode(np.full((3,), v))) for v in (1, 2, 3, 4)]
        fast = Evaluator(context).add_many(cts)
        slow = Evaluator(oracle.Context(context.params)).add_many(cts)
        assert np.array_equal(fast.data, slow.data)
        assert np.array_equal(encoder.decode(decryptor.decrypt(fast)), np.full((3,), 10))


def _custom_params(prime_bits, count, plain_modulus, degree=256, **kwargs):
    return EncryptionParams(
        poly_degree=degree,
        coeff_primes=tuple(modmath.ntt_primes(prime_bits, degree, count)),
        plain_modulus=plain_modulus,
        **kwargs,
    )


#: Parameter sets the RNS kernel is held to the oracle on: every preset, the
#: pure-HE workload's shape (five 30-bit primes, t = 2^31), 31-bit primes
#: under a t beyond 2^31, and w = 2^30 on both sides of the limb bound.
RNS_PARAMS = [
    *small_parameter_options().values(),
    *default_parameter_options().values(),
    _custom_params(30, 5, 1 << 31, name="workload_shape"),
    _custom_params(31, 3, (1 << 41) - 21, name="wide_t_31bit"),
    _custom_params(31, 4, 1 << 20, decomposition_bits=30, name="w30_whole_limb"),
    _custom_params(31, 5, 1 << 20, decomposition_bits=30, name="w30_split_limb"),
]


@pytest.fixture(scope="module")
def square_model():
    from repro.core import train_paper_models

    models = train_paper_models(
        train_size=200, test_size=40, epochs=2, image_size=10, channels=2, kernel_size=3
    )
    return models.quantized_square(), models.quantized_sigmoid(), models.dataset.test_images


class TestRnsMultiply:
    """``multiply`` / ``square`` / ``relinearize`` in production (int64 RNS)
    return the oracle's (Python-int) bytes and tallies."""

    @staticmethod
    def _uniform_ct(context, rng, *batch):
        """Uniform residues: worst-case centered magnitudes, not a well-formed
        encryption -- the kernel's bound must not depend on that."""
        return Ciphertext(context, context.ring.sample_uniform(rng, *batch, 2), is_ntt=True)

    @staticmethod
    def _both(context, fn):
        """``fn(context, counter)`` -> ciphertexts, over ``context`` and over
        its oracle; returns ``{mode: [(is_ntt, bytes)]}`` and ``{mode:
        tallies}``."""
        outputs, tallies = {}, {}
        for mode, each in (("fused", context), ("reference", oracle.Context(context.params))):
            counter = OperationCounter()
            cts = fn(each, counter)
            outputs[mode] = [(ct.is_ntt, ct.data.tobytes()) for ct in cts]
            tallies[mode] = dict(counter.counts)
        return outputs, tallies

    @pytest.mark.parametrize("params", RNS_PARAMS, ids=lambda p: p.name)
    def test_bytes_and_tallies_match_the_oracle(self, params, rng):
        """Distinct operands, a square, either input domain, and a second
        multiplicative level, on uniform ciphertexts."""
        context = Context(params)
        relin_keys = KeyGenerator(context, rng).relin_keys(
            KeyGenerator(context, rng).secret_key()
        )
        batch = (3,) if params.poly_degree <= 1024 else (1,)
        a, b = self._uniform_ct(context, rng, *batch), self._uniform_ct(context, rng, *batch)

        def run(each, counter):
            evaluator = Evaluator(each, counter)
            x, y = _on(each, a, b)
            product = evaluator.multiply(x, y)
            mixed = evaluator.multiply(x.to_coeff(), y)
            squared = evaluator.square(x)
            squared_coeff = evaluator.square(x.to_coeff())
            relined = evaluator.relinearize(product, relin_keys)
            second = evaluator.relinearize(evaluator.multiply(relined, y), relin_keys)
            return product, mixed, squared, squared_coeff, relined, second

        outputs, tallies = self._both(context, run)
        assert outputs["fused"] == outputs["reference"]
        assert tallies["fused"] == tallies["reference"]
        assert tallies["fused"] == {"ct_mul": 5 * batch[0], "relinearize": 2 * batch[0]}

    def test_pure_he_pipeline_parameters(self, square_model, rng):
        from repro.core import parameters_for_pipeline

        params = parameters_for_pipeline(square_model[0], 256)
        assert len(params.coeff_primes) >= 4 and params.plain_modulus >= 1 << 30
        context = Context(params)
        keygen = KeyGenerator(context, rng)
        keys = keygen.generate()
        relin_keys = keygen.relin_keys(keys.secret)
        encoder = ScalarEncoder(context)
        values = rng.integers(-1000, 1000, size=(2, 3))
        ct = Encryptor(context, keys.public, rng).encrypt(encoder.encode(values))

        def run(each, counter):
            evaluator = Evaluator(each, counter)
            return [evaluator.relinearize(evaluator.square(*_on(each, ct)), relin_keys)]

        outputs, tallies = self._both(context, run)
        assert outputs["fused"] == outputs["reference"]
        assert tallies["fused"] == tallies["reference"]
        relined = Evaluator(context).relinearize(Evaluator(context).square(ct), relin_keys)
        decoded = encoder.decode(Decryptor(context, keys.secret).decrypt(relined))
        assert np.array_equal(decoded, values**2)

    @pytest.mark.parametrize("count", [37, 16, 5, 0])
    def test_chunked_batches(self, rng, count):
        """16 ciphertexts make one chunk at n = 256: more than one chunk and no
        multiple of it, exactly one, less than one, and an empty batch."""
        context = Context(small_parameter_options()[256])
        a, b = self._uniform_ct(context, rng, count), self._uniform_ct(context, rng, count)
        outputs, _ = self._both(
            context,
            lambda each, counter: [
                Evaluator(each, counter).multiply(*_on(each, a, b)),
                Evaluator(each, counter).square(*_on(each, a.reshape(count, 1))),
            ],
        )
        assert outputs["fused"] == outputs["reference"]

    @pytest.mark.parametrize("params", RNS_PARAMS, ids=lambda p: p.name)
    def test_rounding_half_way_points_both_signs(self, params, rng):
        """Tensor coefficients ``d = floor((2j+1) q / (2t)) + {-1, 0, 1}``
        straddle every rounding boundary of ``t d / q``; ``q`` is odd, so
        none is a tie and nearest == the oracle's halves-away-from-zero."""
        context = Context(params)
        ring, basis = context.ring, context.aux_basis
        t, q, n = params.plain_modulus, ring.q, ring.n
        largest = 2 * n * (q // 2) ** 2  # any centered operands stay within
        js = [*range(8), *(int(j) for j in rng.integers(0, 1 << 62, size=120))]
        js += [largest * t // q - 1 - j for j in range(4)]
        points = [0, 1, -1, largest, -largest]
        for j in js:
            boundary = (2 * j + 1) * q // (2 * t)
            points += [
                sign * (boundary + delta)
                for delta in (-1, 0, 1)
                for sign in (1, -1)
                if boundary + delta <= largest
            ]
        points += [0] * (-len(points) % n)
        d = np.array(points, dtype=object).reshape(-1, n)
        d_aux = np.stack([(d % p).astype(np.int64) for p in basis.primes], axis=-2)
        got = basis.scale_round(ring.from_int_coeffs(d), d_aux)
        assert got.dtype == np.int64
        assert np.array_equal(got, ring.scale_and_round(d, t, q))

    def test_a_product_combination_rounds_once_like_the_oracle(self, rng):
        """``round(t/q * sum L_i d_i)`` of uniform products with ``||L||_1 =
        2^41 + 9``: a context holding that norm returns the oracle's bytes,
        and one sized for a single product refuses instead of wrapping."""
        params = _custom_params(30, 5, 1 << 31, name="workload_shape")
        weights = [3, -(1 << 40), 5, 1 << 40, 1]
        a, b = (self._uniform_ct(Context(params), rng, len(weights)) for _ in range(2))

        def combined(each):
            product = Evaluator(each).tensor_product(*_on(each, a, b))
            col = np.array(each.product_primes)[:, None]
            acc = np.zeros_like(product.data[0])
            for w, term in zip(weights, product.data):
                acc = (acc + (w % col) * term) % col
            return TensorProduct(each, acc[None], product.is_ntt)

        outputs = []
        for each in (Context(params), oracle.Context(params)):
            each.hold_product_sums(sum(map(abs, weights)))
            outputs.append(Evaluator(each).rescale(combined(each)).data.tobytes())
        assert outputs[0] == outputs[1]
        unsized = Context(params)
        with pytest.raises(ParameterError, match="left the auxiliary basis"):
            Evaluator(unsized).rescale(combined(unsized))

    def test_a_wider_basis_keeps_multiply_and_refuses_stale_products(self, rng):
        """Holding a wider combination rebuilds the basis: a single product
        rescales to the same bytes, and a product computed over the old basis
        is refused by shape."""
        context = Context(small_parameter_options()[256])
        evaluator = Evaluator(context)
        a, b = self._uniform_ct(context, rng, 3), self._uniform_ct(context, rng, 3)
        before = evaluator.multiply(a, b).data
        stale = evaluator.tensor_product(a, b)
        narrow = len(context.aux_basis.primes)
        context.hold_product_sums(1 << 62)
        assert len(context.aux_basis.primes) > narrow
        assert np.array_equal(evaluator.multiply(a, b).data, before)
        with pytest.raises(ParameterError, match="rescale takes"):
            evaluator.rescale(stale)

    def test_truncated_basis_trips_the_check_prime(self, rng):
        """Two base primes short of the bound, the rounded coefficient wraps
        modulo the base; its check-prime residue does not, and no wrong
        coefficient comes back."""
        context = Context(small_parameter_options()[256])
        *base, check = context.aux_basis.primes
        a, b = self._uniform_ct(context, rng, 2), self._uniform_ct(context, rng, 2)
        expected = Evaluator(context).multiply(a, b).data
        context._aux_basis = AuxBasis(context.ring, context.plain_modulus, [*base[:-2], check])
        with pytest.raises(ParameterError, match="check-prime"):
            Evaluator(context).multiply(a, b)

    def test_check_prime_passes_a_result_inside_a_shorter_base(self, rng):
        """The bound is a worst case: operands 17 bits below ``q/2`` round to
        coefficients 34 bits below it, which a base one 30-bit prime short
        still holds -- the check prime agrees and the bytes are the oracle's."""
        context = Context(small_parameter_options()[256])
        ring = context.ring
        *base, check = context.aux_basis.primes
        small = ring.q >> 18
        a, b = (
            Ciphertext(
                context,
                ring.from_int_coeffs(rng.integers(-small, small, (2, ring.n))),
                is_ntt=False,
            )
            for _ in range(2)
        )
        reference = oracle.Context(context.params)
        expected = Evaluator(reference).multiply(*_on(reference, a, b)).data
        assert expected.any()
        context._aux_basis = AuxBasis(ring, context.plain_modulus, [*base[:-1], check])
        assert np.array_equal(Evaluator(context).multiply(a, b).data, expected)

    def test_basis_is_lazy_disjoint_and_wide_enough(self):
        for params in RNS_PARAMS:
            context = Context(params)
            assert context._aux_basis is None
            *base, check = context.aux_basis.primes
            assert context.aux_basis is context._aux_basis
            assert not {*base, check} & set(params.coeff_primes)
            assert len({*base, check}) == len(base) + 1
            assert all(p < 1 << 30 and (p - 1) % (2 * params.poly_degree) == 0 for p in base)
            worst = params.plain_modulus * params.poly_degree * params.coeff_modulus // 2 + 1
            assert modmath.product(base) >= 2 * worst + 1
            assert modmath.product(base[:-1]) < 2 * worst + 1  # and no wider
        counts = {p.name: len(Context(p).aux_basis.primes) for p in RNS_PARAMS}
        assert counts["test_256"] == 3 + 1 and counts["workload_shape"] == 7 + 1

    def test_hybrid_inference_never_builds_the_basis(self, square_model):
        from repro.core import HybridPipeline, parameters_for_pipeline

        _, sigmoid, images = square_model
        pipeline = HybridPipeline(sigmoid, parameters_for_pipeline(sigmoid, 256), seed=3)
        pipeline.infer(images[:1])
        assert pipeline.context._aux_basis is None

    def test_limb_split_is_computed_from_k_and_w(self):
        """``k (p_max - 1) 2^w`` must stay below ``2^63``: w = 16 fits at any
        k, w = 30 up to four primes -- beyond that the limb is split."""
        for k in (1, 3, 12):
            assert MixedRadix(modmath.ntt_primes(31, 64, k)).limb_widths(16) == [16]
        assert MixedRadix(modmath.ntt_primes(31, 64, 4)).limb_widths(30) == [30]
        assert MixedRadix(modmath.ntt_primes(31, 64, 5)).limb_widths(30) == [29, 1]
        assert MixedRadix(modmath.ntt_primes(30, 64, 9)).limb_widths(30) == [29, 1]
        for params in RNS_PARAMS:
            whole = params.name != "w30_split_limb"
            widths = Context(params).ring.radix.limb_widths(params.decomposition_bits)
            assert (widths == [params.decomposition_bits]) == whole

    @pytest.mark.parametrize("bits", [1, 7, 16, 29, 30])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_limbs_match_bigint_shifts(self, rng, k, bits):
        ring = PolyContext(N, modmath.ntt_primes(31, N, k))
        x = ring.sample_uniform(rng, 3)
        big = ring.to_bigint(x)
        count = -(-ring.q.bit_length() // bits)
        limbs = list(ring.radix.limbs(ring.radix.digits(x), bits, count))
        assert len(limbs) == count
        for i, limb in enumerate(limbs):
            assert limb.dtype == np.int64
            assert np.array_equal(limb, (big >> (bits * i)) & ((1 << bits) - 1))

    def test_fused_inference_never_touches_python_ints(self, square_model, monkeypatch):
        """A production ``CryptonetsPipeline.infer`` calls none of the oracle's
        bridges and leaves no object-dtype array in any frame of the
        multiply's two halves (``tensor_product`` / ``rescale``) or
        ``relinearize``."""
        from repro.core import CryptonetsPipeline, parameters_for_pipeline

        square, _, images = square_model
        params = parameters_for_pipeline(square, 256)
        pipeline = CryptonetsPipeline(square, params, seed=5)
        expected = CryptonetsPipeline(
            square, params, seed=5, context_type=oracle.Context
        ).infer(images[:1]).logits

        bridge_calls, object_arrays, watched = [], [], []

        def bridge(name):
            # The wide-q decrypt still lifts to Python ints, outside the
            # watched calls; only a call from inside one is recorded.
            original = getattr(PolyContext, name)

            def wrapper(self, *args, **kwargs):
                if sys.getprofile() is profiler:
                    bridge_calls.append(name)
                return original(self, *args, **kwargs)

            monkeypatch.setattr(PolyContext, name, wrapper)

        def is_object_array(value):
            return isinstance(value, np.ndarray) and value.dtype == object

        def profiler(frame, event, arg):
            if event != "return" or "/repro/he/" not in frame.f_code.co_filename:
                return
            if is_object_array(arg) or any(map(is_object_array, frame.f_locals.values())):
                object_arrays.append(frame.f_code.co_qualname)

        def watch(name):
            original = getattr(Evaluator, name)

            def wrapper(self, *args, **kwargs):
                watched.append(name)
                previous = sys.getprofile()
                sys.setprofile(profiler)
                try:
                    return original(self, *args, **kwargs)
                finally:
                    sys.setprofile(previous)

            monkeypatch.setattr(Evaluator, name, wrapper)

        for name in ("to_bigint", "to_bigint_centered", "convolve_exact", "scale_and_round"):
            bridge(name)
        for name in ("tensor_product", "rescale", "relinearize"):
            watch(name)
        logits = pipeline.infer(images[:1]).logits
        assert np.array_equal(logits, expected)
        assert {"tensor_product", "rescale", "relinearize"} <= set(watched)
        assert bridge_calls == [] and object_arrays == []

    def test_workload_batch_stays_bounded(self, rng):
        """The pure-HE workload squares and relinearizes a (1, 2, 8, 8) batch
        at five primes, a 3.75 MiB result: 15.3 MiB at the peak, the
        relinearization's; 20 MiB when the multiply held the 13-prime
        unscaled product of the whole batch between its two halves, 54 MiB
        when the product's transients were not chunked."""
        context = Context(_custom_params(30, 5, 1 << 31))
        relin_keys = KeyGenerator(context, rng).relin_keys(
            KeyGenerator(context, rng).secret_key()
        )
        ct = self._uniform_ct(context, rng, 1, 2, 8, 8)
        evaluator = Evaluator(context)
        evaluator.square(ct[:, :1, :1, :1])  # build the basis outside the measurement
        tracemalloc.start()
        try:
            relined = evaluator.relinearize(evaluator.square(ct), relin_keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert relined.batch_shape == (1, 2, 8, 8)
        assert peak < 24 * 2**20

    def test_multiply_holds_one_chunk_of_the_unscaled_product(self, rng):
        """``Evaluator.multiply`` rescales each 16-ciphertext chunk of the
        tensor product as it is made: squaring the workload's (1, 2, 8, 8)
        batch peaks at 11.7 MiB, the 3.75 MiB result included -- not at the
        19.7 MiB of the whole batch's 13-prime product held between the
        halves."""
        context = Context(_custom_params(30, 5, 1 << 31))
        ct = self._uniform_ct(context, rng, 1, 2, 8, 8)
        evaluator = Evaluator(context)
        evaluator.square(ct[:, :1, :1, :1])  # build the basis outside the measurement
        tracemalloc.start()
        try:
            squared = evaluator.square(ct)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert squared.batch_shape == (1, 2, 8, 8)
        assert peak < 13 * 2**20


class TestModRows:
    """``_mod_rows`` (remainder by multiply-shift floor division) returns the
    integers of ``np.remainder``, in place, on every layout it is handed and
    over the whole int64 range: callers hand it products of two residues,
    unreduced product sums and signed weight contractions up to ``2^63 - 1``
    in magnitude."""

    #: Views of a ``(2, count, m, n)`` base: one the helper reshapes as it
    #: is, a strided one it views, one it cannot view (``count > 1``).
    LAYOUTS = {
        "contiguous": lambda base: base[1],
        "strided": lambda base: base[:1, ::2],
        "unviewable": lambda base: base.transpose(1, 0, 2, 3),
    }

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_np_remainder(self, data):
        m = data.draw(st.integers(1, 5), label="m")
        n = data.draw(st.sampled_from([1, 3, 256, 1024]), label="n")
        step = max(1, polyring._MOD_BLOCK_ELEMS // (m * n))  # rows per block
        count = data.draw(
            st.sampled_from(sorted({1, max(1, step - 1), step, step + 1, 2 * step + 1})),
            label="count",
        )
        moduli = data.draw(
            st.lists(st.integers(2, (1 << 31) - 1), min_size=m, max_size=m), label="moduli"
        )
        layout = data.draw(st.sampled_from(sorted(self.LAYOUTS)), label="layout")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        gen = np.random.default_rng(seed)
        low, top = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        base = gen.integers(low, top, size=(2, count, m, n), endpoint=True)
        base[..., ::7] //= 1 << 33  # small magnitudes next to extreme ones
        edges = np.array([low, top, low + 1, 0, 1, -1, moduli[0], -moduli[0], moduli[0] - 1])
        base.reshape(-1)[: min(base.size, edges.size)] = edges[: base.size]
        view = self.LAYOUTS[layout]
        column = np.array(moduli, dtype=np.int64)[:, None]
        expected = base.copy()
        view(expected)[...] = np.remainder(view(base), column)
        target = view(base)
        assert polyring._mod_rows(target, moduli) is target
        assert np.array_equal(base, expected)

    def test_rejects_rows_that_are_not_one_per_modulus(self):
        with pytest.raises(ParameterError, match="2 moduli reduce"):
            polyring._mod_rows(np.zeros((3, 4), dtype=np.int64), [5, 7])
        with pytest.raises(ParameterError, match="1 moduli reduce"):
            polyring._mod_rows(np.zeros(4, dtype=np.int64), [5])


class TestBaseConversionGemm:
    """``MixedRadix.convert_centered``'s float64 GEMM against the Python-int
    centered lift, on every converter the RNS multiply builds."""

    @staticmethod
    def _converters(params):
        basis = Context(params).aux_basis
        # ``lift`` (operands, scale 1) and ``rho`` (t d mod q, scale t) share
        # the q -> aux converter; ``back`` returns the rounded result to q and
        # the check prime.
        return {"lift_rho": basis._to_aux, "back": basis._to_ring}

    @staticmethod
    def _edge_values(radix, n: int, chunked: bool):
        """Centered values ``(2, n)`` -- ``±(P-1)/2``, 0, ±1, random, and the
        all-``(p-1)`` residues of -1 -- and their residues ``(2, k, n)``."""
        if chunked:
            radix._gemm_cols = 7  # ragged column chunks
        primes, half = radix.primes, radix.half
        draw = random.Random(n * len(primes))
        values = [half, -half, 0, 1, -1]
        values += [draw.randint(-half, half) for _ in range(2 * n - len(values))]
        values = np.array(values, dtype=object).reshape(2, n)
        residues = np.stack([(values % p).astype(np.int64) for p in primes], axis=1)
        residues[1, :, -1] = np.array(primes) - 1  # all-(p-1) residues: the value -1
        values[1, -1] = -1
        return values, residues

    @staticmethod
    def _evaluated(values, targets):
        return np.stack([(values % b).astype(np.int64) for b in targets], axis=1)

    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    @pytest.mark.parametrize("name", ["lift_rho", "back"])
    @pytest.mark.parametrize("params", RNS_PARAMS, ids=lambda p: p.name)
    def test_matches_python_int_lift(self, params, name, chunked, rng):
        radix = self._converters(params)[name]
        n = params.poly_degree
        values, residues = self._edge_values(radix, n, chunked)
        got = radix.convert_centered(residues)
        assert got.shape == (2, len(radix.targets), n) and got.dtype == np.int64
        assert np.array_equal(got, self._evaluated(values, radix.targets))

    @pytest.mark.parametrize("chunked", [False, True], ids=["whole", "chunked"])
    @pytest.mark.parametrize("params", RNS_PARAMS, ids=lambda p: p.name)
    def test_scaled_rho_matches_python_ints(self, params, chunked):
        """``rho``'s form: with the preset's ``t`` as the scale -- a Garner
        weight, ``t x`` is never formed -- the conversion is the centered
        ``[t x]_q`` evaluated modulo each target."""
        radix = self._converters(params)["lift_rho"]
        t, q, half = params.plain_modulus, modmath.product(radix.primes), radix.half
        values, residues = self._edge_values(radix, params.poly_degree, chunked)
        scaled = (values * t) % q
        centered = np.where(scaled > half, scaled - q, scaled)
        got = radix.convert_centered(residues, scale=t)
        assert np.array_equal(got, self._evaluated(centered, radix.targets))

    @pytest.mark.parametrize("params", RNS_PARAMS, ids=lambda p: p.name)
    def test_scale_round_matches_scale_and_round(self, params):
        """``AuxBasis.scale_round`` -- ``rho`` off the scaled conversion,
        divided with the weight ``[-q^-1]_b`` -- against the Python-int
        rounding on random tensor coefficients up to the worst case."""
        context = Context(params)
        ring, basis = context.ring, context.aux_basis
        t, q, n = params.plain_modulus, ring.q, ring.n
        largest = 2 * n * (q // 2) ** 2
        draw = random.Random(n * ring.k)
        d = [largest, -largest, 0, 1, -1]
        d += [draw.randint(-largest, largest) for _ in range(2 * n - len(d))]
        d = np.array(d, dtype=object).reshape(2, n)
        d_aux = np.stack([(d % p).astype(np.int64) for p in basis.primes], axis=-2)
        got = basis.scale_round(ring.from_int_coeffs(d), d_aux)
        assert np.array_equal(got, ring.scale_and_round(d, t, q))

    def test_scale_round_refuses_a_result_past_the_base(self):
        """A coefficient whose rounded value is about the base's product
        wraps modulo the base; its check-prime residue does not, and
        ``scale_round`` raises instead of returning it."""
        context = Context(small_parameter_options()[256])
        ring, basis = context.ring, context.aux_basis
        *base, _ = basis.primes
        past = modmath.product(base) * ring.q // context.plain_modulus
        d = np.array([past, -past] * (ring.n // 2), dtype=object).reshape(1, ring.n)
        d_aux = np.stack([(d % p).astype(np.int64) for p in basis.primes], axis=-2)
        with pytest.raises(ParameterError, match="check-prime"):
            basis.scale_round(ring.from_int_coeffs(d), d_aux)

    def test_past_the_2_53_bound_is_refused(self):
        """``k (2^15 + 2^16) b_max + b_max < 2^53`` is checked once, in the
        constructor: 42 31-bit primes fit under a 31-bit target, 43 do not."""
        pool = modmath.ntt_primes(31, 64, 44)
        target = pool.pop()
        fits = 42
        assert fits * 3 * (1 << 15) * target + target < 1 << 53
        assert (fits + 1) * 3 * (1 << 15) * target + target >= 1 << 53
        MixedRadix(pool[:fits], [target])
        with pytest.raises(ParameterError, match="2\\^53"):
            MixedRadix(pool[: fits + 1], [target])
        MixedRadix(pool)  # no targets, no GEMM: digits and limbs only
