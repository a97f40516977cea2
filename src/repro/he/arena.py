"""Contiguous prime-major ciphertext arena: headers + zero-copy views.

PR 3 stacked every RNS residue into one ``(..., k, n)`` int64 block per
ciphertext; this module extends that layout across *ciphertexts*.  An
:class:`Arena` owns one large flat int64 buffer (private memory, or a
``multiprocessing.shared_memory`` segment) and hands out
:class:`ArenaView` handles: a tiny header (offset + shape) plus a
zero-copy ``numpy`` view into the buffer.  Three things fall out of the
layout:

* **Batch serialization is a header walk plus buffer slices.**  A view's
  payload is already the contiguous little-endian int64 wire format, so
  ``repro.he.serialize`` emits a ``memoryview`` of the buffer instead of
  ``ascontiguousarray(...).tobytes()`` (no copy; pinned by
  ``tests/he/test_serialize.py``).
* **Work units are index ranges over shared memory.**  When the arena is
  ``shared=True``, a flush's independent work units (batch rows, conv
  output rows, FC classes) are ``(offset, shape, rows)`` descriptors a
  ``repro.he.parallel`` worker re-derives views from by segment *name* --
  nothing but a small dict crosses the process boundary.
* **Growth keeps headers valid.**  Views re-derive their array from the
  current header on every ``.array`` access, so :meth:`Arena.grow` may
  replace the buffer without invalidating handles.  The aliasing rule is
  the converse: a raw ``numpy`` array captured from ``.array`` *before* a
  ``grow`` is a stale alias afterwards -- re-read ``view.array``
  (property-tested in ``tests/he/test_arena.py``).  Blocks are never freed
  one by one: :meth:`Arena.reset` drops them all, and a view of a dropped
  block refuses access.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ArenaError

_WORD = 8  # bytes per int64 slot


def _words(shape: tuple[int, ...]) -> int:
    return int(np.prod(shape, dtype=np.int64)) if shape else 1


class ArenaView:
    """Header handle for one block: ``(arena, offset, shape)``.

    The array is re-derived from the header on each access, so the handle
    survives arena growth; only raw arrays captured earlier go stale.
    """

    __slots__ = ("_arena", "_block")

    def __init__(self, arena: "Arena", block: "_Block") -> None:
        self._arena = arena
        self._block = block

    @property
    def offset(self) -> int:
        """Block offset in int64 words from the start of the buffer."""
        return self._block.offset

    @property
    def shape(self) -> tuple[int, ...]:
        return self._block.shape

    @property
    def words(self) -> int:
        return self._block.words

    @property
    def array(self) -> np.ndarray:
        """The zero-copy ``numpy`` view for the current header."""
        block = self._block
        if not block.live:
            raise ArenaError("view references a freed arena block")
        flat = self._arena.buffer[block.offset : block.offset + block.words]
        return flat.reshape(block.shape)

    def payload(self) -> memoryview:
        """The block's bytes as one buffer slice (no copy)."""
        block = self._block
        if not block.live:
            raise ArenaError("view references a freed arena block")
        start = block.offset * _WORD
        return self._arena.raw[start : start + block.words * _WORD]


class _Block:
    __slots__ = ("offset", "shape", "words", "live")

    def __init__(self, offset: int, shape: tuple[int, ...]) -> None:
        self.offset = offset
        self.shape = shape
        self.words = _words(shape)
        self.live = True


class Arena:
    """One contiguous int64 buffer with a bump allocator.

    Args:
        capacity_words: initial buffer size in int64 slots.
        shared: back the buffer with a ``multiprocessing.shared_memory``
            segment so worker processes can attach by :attr:`name`.
        auto_grow: transparently replace the buffer with a larger one
            (live contents preserved, headers unchanged) instead of
            raising :class:`~repro.errors.ArenaError` when full.
    """

    def __init__(
        self,
        capacity_words: int = 1 << 16,
        *,
        shared: bool = False,
        auto_grow: bool = True,
    ) -> None:
        if capacity_words < 1:
            raise ArenaError("arena capacity must be >= 1 word")
        self.shared = shared
        self.auto_grow = auto_grow
        self._shm = None
        self._buffer: np.ndarray | None = None
        self._allocate(capacity_words)
        self._cursor = 0
        self._blocks: list[_Block] = []

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def _allocate(self, capacity_words: int) -> None:
        if self.shared:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(create=True, size=capacity_words * _WORD)
            buffer = np.frombuffer(shm.buf, dtype=np.int64)
            old = self._shm
            self._shm, self._buffer = shm, buffer
            if old is not None:
                try:
                    old.close()
                except BufferError:  # pragma: no cover - caller-held view
                    pass
                old.unlink()
        else:
            self._buffer = np.empty(capacity_words, dtype=np.int64)

    @property
    def buffer(self) -> np.ndarray:
        """The flat int64 buffer (current backing storage)."""
        return self._buffer

    @property
    def raw(self) -> memoryview:
        """The buffer's bytes (for zero-copy serialization slices)."""
        return self._buffer.view(np.uint8).data

    @property
    def name(self) -> str | None:
        """Shared-memory segment name workers attach by (None if private)."""
        return self._shm.name if self._shm is not None else None

    @property
    def capacity_words(self) -> int:
        return int(self._buffer.size)

    def grow(self, min_capacity_words: int) -> None:
        """Replace the buffer with a larger one, preserving live content."""
        new_capacity = max(min_capacity_words, 2 * self.capacity_words)
        old = self._buffer[: self._cursor].copy()
        self._allocate(new_capacity)
        self._buffer[: self._cursor] = old

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc(self, shape: tuple[int, ...]) -> ArenaView:
        """Reserve a block of ``shape`` (contents uninitialized)."""
        shape = tuple(int(dim) for dim in shape)
        if any(dim < 0 for dim in shape):
            raise ArenaError(f"negative dimension in shape {shape}")
        needed = _words(shape)
        if self._cursor + needed > self.capacity_words:
            if not self.auto_grow:
                raise ArenaError(
                    f"arena exhausted: {needed} words requested, "
                    f"{self.capacity_words - self._cursor} free"
                )
            self.grow(self._cursor + needed)
        block = _Block(self._cursor, shape)
        self._cursor += needed
        self._blocks.append(block)
        return ArenaView(self, block)

    def place(self, array: np.ndarray) -> ArenaView:
        """Copy ``array`` into a fresh block (the one copy it ever needs)."""
        array = np.asarray(array, dtype=np.int64)
        view = self.alloc(array.shape)
        np.copyto(view.array, array)
        return view

    def reset(self) -> None:
        """Drop every block and rewind the cursor (scratch-arena reuse)."""
        for block in self._blocks:
            block.live = False
        self._blocks.clear()
        self._cursor = 0

    def close(self) -> None:
        """Release the shared-memory segment (no-op for private arenas)."""
        if self._shm is not None:
            shm, self._shm = self._shm, None
            self._buffer = np.empty(0, dtype=np.int64)
            try:
                shm.close()
            except BufferError:  # pragma: no cover - caller-held view
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass


def stacked_view(arrays: list[np.ndarray]) -> np.ndarray | None:
    """A zero-copy ``np.stack`` equivalent for equally-strided sibling views.

    When every array in ``arrays`` is a same-shape/same-stride view into
    one base buffer and consecutive members sit a constant byte offset
    apart (adjacent arena blocks, rows of one stacked ciphertext), the
    stack *already exists* in memory: this returns an ``as_strided`` view
    with one extra leading axis.  Returns ``None``
    when the arrays do not alias one buffer that way -- callers fall back
    to a materializing ``np.stack``.
    """
    if len(arrays) < 2:
        return None
    first = arrays[0]
    if not isinstance(first, np.ndarray) or first.dtype != np.int64:
        return None

    def _root(arr: np.ndarray):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        return arr.base if arr.base is not None else arr

    root = _root(first)
    addresses = []
    for arr in arrays:
        if (
            not isinstance(arr, np.ndarray)
            or arr.shape != first.shape
            or arr.strides != first.strides
            or arr.dtype != first.dtype
            or _root(arr) is not root
        ):
            return None
        addresses.append(arr.__array_interface__["data"][0])
    step = addresses[1] - addresses[0]
    if any(b - a != step for a, b in zip(addresses, addresses[1:])):
        return None
    return np.lib.stride_tricks.as_strided(
        first,
        shape=(len(arrays), *first.shape),
        strides=(step, *first.strides),
    )
