"""Property suite for the contiguous ciphertext arena (DESIGN.md §15).

Covers the three load-bearing contracts: alloc/growth round-trips preserve
block contents, the view aliasing rules (headers survive growth, raw arrays
captured earlier do not; views of a reset arena raise), and
serialize(view) == serialize(copy) at the byte level -- the zero-copy
serialization path must be indistinguishable on the wire.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ArenaError
from repro.he import serialize as ser
from repro.he.arena import Arena, stacked_view
from repro.he.context import Ciphertext


def fill(view, rng):
    """Stamp a view's block with reproducible values; returns a copy."""
    values = rng.integers(0, 1 << 40, size=view.shape, dtype=np.int64)
    np.copyto(view.array, values)
    return values


class TestAllocFree:
    def test_alloc_round_trip(self, rng):
        arena = Arena(1 << 10)
        views, expected = [], []
        for shape in [(4, 3), (2, 2, 5), (7,), ()]:
            view = arena.alloc(shape)
            views.append(view)
            expected.append(fill(view, rng))
        for view, values in zip(views, expected):
            assert view.shape == values.shape
            assert np.array_equal(view.array, values)
        assert arena.alloc((1,)).offset == sum(v.words for v in views)

    def test_blocks_are_adjacent_in_allocation_order(self):
        arena = Arena(1 << 10)
        a = arena.alloc((3, 4))
        b = arena.alloc((5,))
        assert a.offset == 0
        assert b.offset == a.words == 12

    def test_place_copies_content(self, rng):
        arena = Arena(1 << 10)
        src = rng.integers(-100, 100, size=(3, 5), dtype=np.int64)
        view = arena.place(src)
        assert np.array_equal(view.array, src)
        src[0, 0] = 999  # place copies: later source mutation is invisible
        assert view.array[0, 0] != 999

    def test_negative_shape_raises(self):
        with pytest.raises(ArenaError):
            Arena(64).alloc((2, -1))

    def test_exhaustion_raises_without_auto_grow(self):
        arena = Arena(16, auto_grow=False)
        arena.alloc((10,))
        with pytest.raises(ArenaError):
            arena.alloc((10,))

    def test_reset_rewinds_and_kills_views(self, rng):
        arena = Arena(64)
        view = arena.alloc((8,))
        fill(view, rng)
        arena.reset()
        with pytest.raises(ArenaError):
            _ = view.array
        with pytest.raises(ArenaError):
            view.payload()
        assert arena.alloc((8,)).offset == 0


class TestGrowth:
    def test_auto_grow_preserves_content(self, rng):
        arena = Arena(16)
        small = arena.alloc((8,))
        values = fill(small, rng)
        big = arena.alloc((100,))  # forces growth
        assert arena.capacity_words >= 108
        assert np.array_equal(small.array, values)
        assert big.words == 100

    def test_grow_invalidates_captured_raw_arrays(self, rng):
        arena = Arena(16)
        view = arena.alloc((8,))
        values = fill(view, rng)
        stale = view.array
        arena.grow(1 << 10)
        assert np.array_equal(view.array, values)
        assert not np.shares_memory(stale, view.array)


class TestSharedArena:
    def test_named_segment_attaches_with_same_content(self, rng):
        from multiprocessing import shared_memory

        arena = Arena(1 << 8, shared=True)
        try:
            view = arena.alloc((16,))
            values = fill(view, rng)
            assert arena.name is not None
            peer = shared_memory.SharedMemory(name=arena.name)
            try:
                mirrored = np.frombuffer(peer.buf, dtype=np.int64)[
                    view.offset : view.offset + view.words
                ].copy()
            finally:
                peer.close()
            assert np.array_equal(mirrored, values)
        finally:
            arena.close()

    def test_close_unlinks_segment(self):
        from multiprocessing import shared_memory

        arena = Arena(64, shared=True)
        name = arena.name
        arena.close()
        assert arena.name is None
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_private_arena_has_no_name_and_close_is_noop(self):
        arena = Arena(64)
        assert arena.name is None
        arena.close()


class TestSerializeEquivalence:
    def test_view_and_copy_serialize_to_identical_bytes(
        self, context, encryptor, encoder
    ):
        """The wire must not know whether a ciphertext lives in the arena."""
        ct = encryptor.encrypt(encoder.encode(123)).to_ntt()
        arena = Arena(1 << 12)
        view = arena.place(ct.data)
        ct_view = Ciphertext(context, view.array, is_ntt=True)
        ct_copy = Ciphertext(context, np.ascontiguousarray(ct.data), is_ntt=True)
        assert ser.serialize_ciphertext(ct_view) == ser.serialize_ciphertext(ct_copy)

    def test_payload_is_the_buffer_slice(self, rng):
        arena = Arena(1 << 8)
        view = arena.alloc((4, 4))
        values = fill(view, rng)
        assert bytes(view.payload()) == values.tobytes()


class TestStackedView:
    def test_adjacent_rows_stack_without_copy(self, rng):
        base = rng.integers(0, 1 << 30, size=(5, 3, 2), dtype=np.int64)
        rows = [base[i] for i in range(5)]
        stacked = stacked_view(rows)
        assert stacked is not None
        assert np.array_equal(stacked, np.stack(rows))
        assert np.shares_memory(stacked, base)
        base[2, 0, 0] = -7  # a view: writes to the base show through
        assert stacked[2, 0, 0] == -7

    def test_strided_rows_stack(self, rng):
        base = rng.integers(0, 1 << 30, size=(8, 4), dtype=np.int64)
        rows = [base[i] for i in (1, 3, 5, 7)]  # constant step of 2 rows
        stacked = stacked_view(rows)
        assert stacked is not None
        assert np.array_equal(stacked, np.stack(rows))

    def test_irregular_spacing_returns_none(self, rng):
        base = rng.integers(0, 10, size=(8, 4), dtype=np.int64)
        assert stacked_view([base[0], base[1], base[4]]) is None

    def test_foreign_bases_return_none(self, rng):
        a = rng.integers(0, 10, size=(2, 4), dtype=np.int64)
        b = rng.integers(0, 10, size=(2, 4), dtype=np.int64)
        assert stacked_view([a[0], b[1]]) is None

    def test_shape_mismatch_and_short_lists_return_none(self, rng):
        base = rng.integers(0, 10, size=(4, 4), dtype=np.int64)
        assert stacked_view([base[0], base[1][:3]]) is None
        assert stacked_view([base[0]]) is None
        assert stacked_view([]) is None

    def test_non_int64_returns_none(self):
        base = np.zeros((3, 4), dtype=np.float64)
        assert stacked_view([base[0], base[1]]) is None

    def test_arena_sibling_blocks_stack(self, rng):
        arena = Arena(1 << 8)
        views = [arena.alloc((2, 3)) for _ in range(3)]
        expected = [fill(v, rng) for v in views]
        stacked = stacked_view([v.array for v in views])
        assert stacked is not None
        assert np.array_equal(stacked, np.stack(expected))
