"""The shared-memory worker pool: byte-identity, config knobs, fallback.

The determinism contract (DESIGN.md §15): the pool's assembled output is
byte-identical to the in-process unit executor run serially over the same
arena, for every worker count and both split axes (batch rows when B > 1,
conv output rows / FC classes for the lane-packed B == 1 flush).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParallelError, PipelineError
from repro.he import parallel
from repro.he.arena import Arena
from repro.he.parallel import WorkerPool, _execute_unit, _unit_ranges

PRIMES = [1032193, 1030151]


@pytest.fixture(autouse=True)
def pristine_parallel_state():
    """Every test starts and ends at the in-process default, pool down."""
    parallel.configure(None)
    parallel.shutdown()
    yield
    parallel.configure(None)
    parallel.shutdown()


@pytest.fixture(scope="module")
def pool3():
    pool = WorkerPool(3, capacity_words=1 << 16)
    yield pool
    pool.close()


def conv_case(rng, b):
    """A small fused-conv case: data ``(B, C, H, W, size, k, n)`` plus the
    flattened tap matrix ``(F, C*k*k)``."""
    c, h, w, k, s = 2, 6, 6, 3, 2
    oh = ow = (h - k) // s + 1
    data = rng.integers(0, 1 << 20, size=(b, c, h, w, 2, len(PRIMES), 4), dtype=np.int64)
    wtaps = rng.integers(0, 1 << 16, size=(3, c * k * k), dtype=np.int64)
    return data, wtaps, dict(k=k, s=s, oh=oh, ow=ow, primes=PRIMES, chunk=5)


def dense_case(rng, b):
    fd = rng.integers(0, 1 << 20, size=(b, 7, 2, len(PRIMES), 4), dtype=np.int64)
    wmat = rng.integers(0, 1 << 16, size=(5, 7), dtype=np.int64)
    return fd, wmat


def run_serial(kind, data, weights, out_shape, axis, length, common):
    """The authoritative reference: the identical unit executor over a
    private arena, one unit spanning the whole split axis."""
    arena = Arena(1 << 16, shared=False)
    in_view = arena.place(data)
    w_view = arena.place(weights)
    out_view = arena.alloc(out_shape)
    task = {
        "kind": kind,
        "in_off": in_view.offset,
        "in_shape": in_view.shape,
        "w_off": w_view.offset,
        "w_shape": w_view.shape,
        "out_off": out_view.offset,
        "out_shape": out_view.shape,
        "axis": axis,
        "rows": (0, length),
        "primes": tuple(common.get("primes", PRIMES)),
        **{k: v for k, v in common.items() if k != "primes"},
    }
    _execute_unit(task, arena.buffer)
    return out_view.array.copy()


class TestUnitRanges:
    def test_covers_range_contiguously(self):
        for length in (1, 2, 5, 16, 33):
            for units in (1, 2, 4, 7, 40):
                ranges = _unit_ranges(length, units)
                assert ranges[0][0] == 0 and ranges[-1][1] == length
                for (_, a1), (b0, _) in zip(ranges, ranges[1:]):
                    assert a1 == b0
                assert len(ranges) == min(length, units)

    def test_deterministic(self):
        assert _unit_ranges(10, 3) == _unit_ranges(10, 3)


class TestPoolByteIdentity:
    @pytest.mark.parametrize("b", [1, 4])
    def test_conv_matches_serial(self, rng, pool3, b):
        data, wtaps, common = conv_case(rng, b)
        oh, ow = common["oh"], common["ow"]
        out_shape = (b, wtaps.shape[0], oh, ow, *data.shape[-3:])
        axis, length = ("batch", b) if b > 1 else ("rows", oh)
        expected = run_serial("conv", data, wtaps, out_shape, axis, length, common)
        pooled = pool3.run_conv(data, wtaps, **common)
        assert pooled is not None
        assert pooled.dtype == np.int64
        assert np.array_equal(pooled, expected)
        assert pooled.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("b", [1, 4])
    def test_dense_matches_serial(self, rng, pool3, b):
        fd, wmat = dense_case(rng, b)
        out_shape = (b, wmat.shape[0], *fd.shape[2:])
        axis, length = ("batch", b) if b > 1 else ("classes", wmat.shape[0])
        expected = run_serial(
            "dense", fd, wmat, out_shape, axis, length, {"primes": PRIMES}
        )
        pooled = pool3.run_dense(fd, wmat, primes=PRIMES)
        assert pooled is not None
        assert pooled.tobytes() == expected.tobytes()

    def test_repeated_runs_are_stable(self, rng, pool3):
        data, wtaps, common = conv_case(rng, 3)
        first = pool3.run_conv(data, wtaps, **common)
        second = pool3.run_conv(data, wtaps, **common)
        assert first.tobytes() == second.tobytes()

    def test_counters_advance(self, rng, pool3):
        before = pool3.dispatched_units
        pool3.run_dense(*dense_case(rng, 4), primes=PRIMES)
        assert pool3.dispatched_units > before

    def test_nothing_to_split_returns_none(self, rng, pool3):
        fd = rng.integers(0, 10, size=(1, 1, 2, len(PRIMES), 4), dtype=np.int64)
        wmat = rng.integers(0, 10, size=(1, 1), dtype=np.int64)
        assert pool3.run_dense(fd, wmat, primes=PRIMES) is None

    def test_pool_rejects_single_worker(self):
        with pytest.raises(ParallelError):
            WorkerPool(1)


class TestConfiguration:
    def test_default_workers_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert parallel.default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert parallel.default_workers() == 4
        assert parallel.active_workers() == 4
        monkeypatch.setenv("REPRO_WORKERS", " ")
        assert parallel.default_workers() == 1
        # A mistyped CI switch must not go green at the default width.
        for bad in ("0", "garbage", "-2", "2.0"):
            monkeypatch.setenv("REPRO_WORKERS", bad)
            with pytest.raises(ParallelError, match="REPRO_WORKERS.*>= 1"):
                parallel.default_workers()

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        previous = parallel.configure(2)
        assert parallel.active_workers() == 2
        parallel.configure(previous)
        assert parallel.active_workers() == 4

    def test_configure_rejects_zero(self):
        with pytest.raises(ParallelError):
            parallel.configure(0)

    def test_use_restores_previous(self):
        parallel.configure(3)
        with parallel.use(2):
            assert parallel.active_workers() == 2
        assert parallel.active_workers() == 3

    def test_no_pool_below_two_workers(self):
        parallel.configure(1)
        assert parallel.active_pool() is None

    def test_dispatch_falls_back_in_process(self, rng):
        """No pool below two workers: the dispatch runs one whole-range unit
        in this process and returns the bytes the pool assembles."""
        fd, wmat = dense_case(rng, 4)
        conv_data, wtaps, common = conv_case(rng, 4)
        with parallel.use(1):
            dense_1 = parallel.dispatch_dense(fd, wmat, primes=PRIMES)
            conv_1 = parallel.dispatch_conv(conv_data, wtaps, **common)
            assert parallel.active_pool() is None
        with parallel.use(2):
            dense_2 = parallel.dispatch_dense(fd, wmat, primes=PRIMES)
            conv_2 = parallel.dispatch_conv(conv_data, wtaps, **common)
            assert parallel.active_pool().dispatched_units > 0
        assert dense_1.tobytes() == dense_2.tobytes()
        assert conv_1.tobytes() == conv_2.tobytes()

    def test_dispatch_uses_pool_when_configured(self, rng):
        fd, wmat = dense_case(rng, 4)
        out_shape = (4, wmat.shape[0], *fd.shape[2:])
        expected = run_serial(
            "dense", fd, wmat, out_shape, "batch", 4, {"primes": PRIMES}
        )
        with parallel.use(2):
            pooled = parallel.dispatch_dense(fd, wmat, primes=PRIMES)
            assert pooled is not None
            assert pooled.tobytes() == expected.tobytes()

    def test_width_change_rebuilds_pool(self):
        with parallel.use(2):
            first = parallel.active_pool()
            assert first.workers == 2
            with parallel.use(3):
                second = parallel.active_pool()
                assert second is not first
                assert second.workers == 3


class TestAttachBuffer:
    def test_second_segment_drops_the_first(self):
        """A worker maps only the segment its current task names: when the
        parent's arena grows, the replaced mapping is closed at the next
        attach instead of staying mapped until the worker exits."""
        from multiprocessing import shared_memory

        segments = [shared_memory.SharedMemory(create=True, size=64) for _ in range(2)]
        cache: dict = {}
        try:
            for index, segment in enumerate(segments):
                np.frombuffer(segment.buf, dtype=np.int64)[:] = index + 1
            first = parallel._attach_buffer(segments[0].name, cache)
            assert first.tolist() == [1] * 8
            assert parallel._attach_buffer(segments[0].name, cache) is first
            first_mapping = cache[segments[0].name][0]
            del first
            second = parallel._attach_buffer(segments[1].name, cache)
            assert second.tolist() == [2] * 8
            assert list(cache) == [segments[1].name]
            assert first_mapping.buf is None  # closed, not merely forgotten
            del second
            parallel._detach_all(cache)
            assert cache == {}
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()


class TestPipelineSpecWiring:
    def test_spec_rejects_zero_workers(self):
        from repro.core.pipeline import PipelineSpec

        with pytest.raises(PipelineError):
            PipelineSpec(scheme="hybrid", workers=0)

    def test_apply_workers_configures_process(self):
        from repro.core.pipeline import PipelineSpec

        PipelineSpec(scheme="hybrid", workers=2).apply_workers()
        assert parallel.active_workers() == 2

    def test_none_workers_inherits(self):
        from repro.core.pipeline import PipelineSpec

        parallel.configure(3)
        PipelineSpec(scheme="hybrid").apply_workers()
        assert parallel.active_workers() == 3
