"""The fused scalar contraction: one kernel per layer kind.

Every model weight is a ``ScalarEncoder`` constant, so a ``C x P`` product
multiplies NTT residues by one signed integer and a whole conv or FC layer
is a signed int64 matmul over the raw weights plus a single mod-p pass
(:func:`bound_ok` is the precondition).  The two kernels below are the only
definitions of that arithmetic; ``heops`` calls each once per layer, in the
calling process, and each returns its whole output.

Shared arguments: ``keep`` names the surviving taps (at least one) when
every dropped weight column is zero, an exactly-zero contribution; ``bias``
is the ``(F|O, ..., k_rns, n)`` canonical residues of ``Delta * bias``,
folded into the still-unreduced accumulator.
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


def conv(
    data: np.ndarray,
    wtaps: np.ndarray,
    *,
    k: int,
    s: int,
    oh: int,
    ow: int,
    primes,
    chunk: int,
    keep=None,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Conv tap contraction of ``data`` ``(B, C, H, W, size, k_rns, n)`` with
    ``wtaps`` ``(F, C*k*k)`` (row-major over ``(C, i, j)``): the output
    ``(B, F, OH, OW, size, k_rns, n)``.  The window gather runs ``chunk``
    taps at a time so the stacked intermediate stays bounded."""
    b, channels = data.shape[:2]
    out = np.empty((b, wtaps.shape[0], oh, ow, *data.shape[-3:]), dtype=np.int64)
    taps = [(ci, i, j) for ci in range(channels) for i in range(k) for j in range(k)]
    if keep is not None:
        taps, wtaps = [taps[x] for x in keep], wtaps[:, list(keep)]
    acc = np.moveaxis(out, 1, 0)  # (F, B, OH, OW, ...): accumulate in place
    for start in range(0, len(taps), chunk):
        block = taps[start : start + chunk]
        win = np.empty((len(block), *acc.shape[1:]), dtype=np.int64)
        for off, (ci, i, j) in enumerate(block):
            win[off] = data[:, ci, i : i + oh * s : s, j : j + ow * s : s]
        part = wtaps[:, start : start + chunk] @ win.reshape(len(block), -1)
        if start:
            acc += part.reshape(acc.shape)
        else:
            acc[...] = part.reshape(acc.shape)
    _reduce(acc, bias, primes)
    return out


def dense(
    fd: np.ndarray,
    wmat: np.ndarray,
    *,
    primes,
    keep=None,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """All-classes FC matmul of ``fd`` ``(B, D, size, k_rns, n)`` with
    ``wmat`` ``(O, D)``: the output ``(B, O, size, k_rns, n)``."""
    if keep is not None:
        fd, wmat = fd[:, list(keep)], wmat[:, list(keep)]
    moved = np.ascontiguousarray(np.moveaxis(fd, 1, 0)).reshape(fd.shape[1], -1)
    acc = (wmat @ moved).reshape(wmat.shape[0], fd.shape[0], *fd.shape[2:])
    _reduce(acc, bias, primes)
    return np.ascontiguousarray(np.moveaxis(acc, 0, 1))
