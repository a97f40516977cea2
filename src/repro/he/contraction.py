"""The fused scalar contraction: one row-range kernel per layer kind.

Every model weight is a ``ScalarEncoder`` constant, so a ``C x P`` product
multiplies NTT residues by one signed integer and a whole conv or FC layer
is a signed int64 matmul over the raw weights plus a single mod-p pass
(:func:`bound_ok` is the precondition).  The two kernels below are the only
definitions of that arithmetic: ``heops`` runs them over a layer's whole
range in-process, ``parallel``'s workers over their unit's range, and
death-replay in the parent.  Exact int64 adds are associative, so any row
split of the output is byte-identical to the whole-range run.

Shared arguments: the kernel writes ``rows`` of ``axis`` of the full output
block ``out`` (``"batch"`` rows, else conv output rows / FC classes for a
lane-packed ``(1, ...)`` SIMD batch); ``keep`` names the surviving taps (at least
one) when every dropped weight column is zero, an exactly-zero
contribution; ``bias`` is the ``(F|O, ..., k_rns, n)`` canonical residues
of ``Delta * bias``, folded into the still-unreduced accumulator.
"""

from __future__ import annotations

import numpy as np

from repro.he.polyring import _mod_rows


def bound_ok(values: np.ndarray, max_terms: int, slack: int = 0) -> bool:
    """True when ``sum_j(w_j * x_j)`` over one row of ``values``, with
    ``|w_j| <= max|values|`` and canonical residues ``x_j``, is at most
    ``max_terms`` residues deep (a ring's
    :attr:`~repro.he.polyring.PolyContext.max_sum_terms`), so it cannot
    overflow int64 -- the kernels' deferred single-reduction contract.
    ``slack`` budgets extra weight-1 residue terms (a folded bias adds
    one)."""
    if values.size == 0:
        return False
    w_max = int(np.abs(values).max())
    return values.shape[-1] * w_max + slack <= max_terms


def _reduce(acc: np.ndarray, bias: np.ndarray | None, primes) -> None:
    """Fold ``bias`` into component 0 of ``acc`` (``(F|O, ..., size, k_rns,
    n)``), then the one mod-p pass (floor mod: exact also for negatives)."""
    if bias is not None:
        acc[..., 0, :, :] += bias.reshape(
            bias.shape[0], *(1,) * (acc.ndim - 4), *bias.shape[-2:]
        )
    _mod_rows(acc, primes)


def conv_rows(
    data: np.ndarray,
    wtaps: np.ndarray,
    out: np.ndarray,
    *,
    axis: str,
    rows: tuple[int, int],
    k: int,
    s: int,
    oh: int,
    ow: int,
    primes,
    chunk: int,
    keep=None,
    bias: np.ndarray | None = None,
) -> None:
    """Conv tap contraction of ``data`` ``(B, C, H, W, size, k_rns, n)`` with
    ``wtaps`` ``(F, C*k*k)`` (row-major over ``(C, i, j)``) into ``rows`` of
    ``out`` ``(B, F, OH, OW, size, k_rns, n)``.  The window gather runs
    ``chunk`` taps at a time so the stacked intermediate stays bounded."""
    r0, r1 = rows
    if axis == "batch":
        data, target, (oh0, oh1) = data[r0:r1], out[r0:r1], (0, oh)
    else:
        target, (oh0, oh1) = out[:, :, r0:r1], rows
    channels = data.shape[1]
    taps = [(ci, i, j) for ci in range(channels) for i in range(k) for j in range(k)]
    if keep is not None:
        taps, wtaps = [taps[x] for x in keep], wtaps[:, list(keep)]
    acc = np.moveaxis(target, 1, 0)  # (F, b, rows, OW, ...): accumulate in place
    for start in range(0, len(taps), chunk):
        block = taps[start : start + chunk]
        win = np.empty((len(block), *acc.shape[1:]), dtype=np.int64)
        for off, (ci, i, j) in enumerate(block):
            win[off] = data[:, ci, i + oh0 * s : i + oh1 * s : s, j : j + ow * s : s]
        part = wtaps[:, start : start + chunk] @ win.reshape(len(block), -1)
        if start:
            acc += part.reshape(acc.shape)
        else:
            acc[...] = part.reshape(acc.shape)
    _reduce(acc, bias, primes)


def dense_rows(
    fd: np.ndarray,
    wmat: np.ndarray,
    out: np.ndarray,
    *,
    axis: str,
    rows: tuple[int, int],
    primes,
    keep=None,
    bias: np.ndarray | None = None,
) -> None:
    """All-classes FC matmul of ``fd`` ``(B, D, size, k_rns, n)`` with
    ``wmat`` ``(O, D)`` into ``rows`` of ``out`` ``(B, O, size, k_rns, n)``."""
    r0, r1 = rows
    if axis == "batch":
        fd, target = fd[r0:r1], out[r0:r1]
    else:
        wmat, target = wmat[r0:r1], out[:, r0:r1]
        bias = None if bias is None else bias[r0:r1]
    if keep is not None:
        fd, wmat = fd[:, list(keep)], wmat[:, list(keep)]
    moved = np.ascontiguousarray(np.moveaxis(fd, 1, 0)).reshape(fd.shape[1], -1)
    acc = (wmat @ moved).reshape(wmat.shape[0], fd.shape[0], *fd.shape[2:])
    _reduce(acc, bias, primes)
    target[...] = np.moveaxis(acc, 0, 1)
