"""Coefficient lanes -- the one packing layout (the paper's Section VIII).

The paper predicts that packing ``n`` values per ciphertext buys up to
``n``x the throughput.  Every HE layer here multiplies by *scalar* plaintexts
(weights shared across users), and a scalar acts on all ``n`` polynomial
coefficients alike, so value ``b`` of a batch rides coefficient ``b`` -- a
*lane* -- under any plaintext modulus: no CRT slot transform, no batching
prime.  The ``ablation_simd`` rows of ``benchmarks/bench_paper.py`` measure
that throughput.  What lanes drop is a per-lane *distinct* multiplier (and
with it a lane-wise ciphertext product); no inference layer uses one.

:func:`write_lanes` / :func:`read_lanes` lay values out and read them back
(with zero probes past the lanes); :func:`pack_coefficients` folds scalar
ciphertexts into lanes homomorphically, on the host.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import EncodingError, KeyMismatchError
from repro.he.context import Ciphertext, Context, Plaintext
from repro.he.evaluator import Evaluator, PlainOperand


def _monomial_rows(context: Context, count: int) -> np.ndarray:
    """NTT residues ``(count, k_rns, n)`` of ``x^0 .. x^(count-1)``, read from
    the context's prefix memo: row ``b`` is ``NTT(x^b)`` whatever ``count``
    is, so the memo only ever grows to the largest ``count`` seen -- at most
    ``n`` rows, ``pack_coefficients``' own limit -- and a repeat or smaller
    request transforms nothing."""
    memo = context._monomial_ntt
    have = 0 if memo is None else memo.shape[0]
    if count > have:
        fresh = np.zeros((count - have, context.poly_degree), dtype=np.int64)
        fresh[np.arange(count - have), np.arange(have, count)] = 1
        rows = context.ring.ntt(context.ring.from_signed_small(fresh))
        memo = rows if memo is None else np.concatenate([memo, rows])
        memo.flags.writeable = False  # every fold reads views of it
        context._monomial_ntt = memo
    return memo[:count]


def pack_coefficients(
    evaluator: Evaluator, ct: Ciphertext | Sequence[Ciphertext]
) -> Ciphertext:
    """Fold leading batch axes into polynomial *coefficients*.

    Given scalar-encoded ciphertexts ``(B, *rest)`` (value in the constant
    coefficient) -- one ciphertext, or a sequence of parts ``(B_i, *rest)``
    standing for their concatenation along axis 0, which is never built --
    homomorphically computes ``sum_b ct[b] * x^b``: a ``(*rest,)``
    ciphertext whose underlying plaintext carries value ``b`` in coefficient
    ``b``.  Pure host-side ``C x P`` / ``C + C`` work: no key material, no
    decryption, and the parts are read where they lie (views, strided and
    read-only data included) by one :meth:`Evaluator.sum_products`.

    This is the whole scalar->batched conversion of the serving flush: a
    scalar weight acts on every coefficient alike, so the fold already is a
    batch-axis ciphertext, request ``b`` in *lane* ``b`` (:func:`lane_operand`,
    :func:`read_lanes`).  Folded along the class axis instead, it turns the
    direct path's ``(B, classes)`` logits into the served-result format, one
    ciphertext per image.  Noise grows by at most ``log2(B)`` bits (monomial
    coefficients are 1), which a fresh encryption easily absorbs.

    Raises:
        EncodingError: no parts; a part (named by its index) with no batch
            axis, of a foreign context, in coefficient domain or with a
            trailing shape unlike part 0's; or ``B`` beyond the ring degree.
    """
    parts = [ct] if isinstance(ct, Ciphertext) else list(ct)
    if not parts:
        raise EncodingError("pack_coefficients expects at least one ciphertext")
    context = evaluator.context
    rows: list[np.ndarray] = []
    for i, part in enumerate(parts):
        if not part.batch_shape:
            raise EncodingError(
                f"pack_coefficients expects a leading batch axis (part {i} has none)"
            )
        try:
            context.check_same(part.context)
        except KeyMismatchError as exc:
            raise EncodingError(f"pack_coefficients part {i}: {exc}") from exc
        if not part.is_ntt:
            raise EncodingError(
                f"pack_coefficients part {i} is in coefficient domain; fold "
                "NTT-domain ciphertexts (to_ntt())"
            )
        if part.data.shape[1:] != parts[0].data.shape[1:]:
            raise EncodingError(
                f"pack_coefficients part {i} has trailing shape "
                f"{part.data.shape[1:]}, part 0 has {parts[0].data.shape[1:]}"
            )
        rows.extend(part.data)
    if len(rows) > context.poly_degree:
        raise EncodingError(
            f"batch of {len(rows)} exceeds the ring degree {context.poly_degree}"
        )
    # Row b is NTT(x^b), broadcast over the remaining axes and components.
    return evaluator.sum_products(rows, _monomial_rows(context, len(rows)))


def lane_operand(operand: PlainOperand, lanes: int) -> PlainOperand:
    """``Delta * b * (1 + x + ... + x^(lanes-1))`` from a layer bias' scalar
    ``Delta * b`` operand: the bias of a ciphertext whose batch rides
    coefficients ``0..lanes-1``; the coefficients past them stay zero."""
    if lanes == 1:  # scalar encoding
        return operand
    ring = operand.context.ring
    ones = ring.reduce_sum(_monomial_rows(operand.context, lanes), axis=0)
    return PlainOperand(operand.context, ring.pointwise_mul(operand.ntt_data, ones))


def lane_plain(plain: Plaintext, lanes: int) -> Plaintext:
    """:func:`lane_operand` for the per-tap reference loop's bias plaintext."""
    coeffs = plain.coeffs.copy()
    coeffs[..., :lanes] = coeffs[..., :1]
    return Plaintext(plain.context, coeffs)


def read_lanes(plain: Plaintext, lanes: int) -> np.ndarray:
    """Signed values ``(lanes, *rest)`` from coefficients ``0..lanes-1`` of a
    ``(1, *rest)`` plaintext batch; :class:`EncodingError` unless every
    coefficient past them is zero (the scalar decode's probes, ``n - lanes``).

    Two layouts use it: the packed flush's ``(1, C, H, W)`` ciphertext,
    request ``b`` in lane ``b``, and a served result -- ``(B,)`` ciphertexts,
    one per image, whose ``(1, B)`` reshape holds the logits along the class
    axis: class ``c`` of image ``b`` in coefficient ``c``."""
    n = plain.context.poly_degree
    if not 1 <= lanes <= n:
        raise EncodingError(f"batch must be in [1, {n}], got {lanes}")
    if plain.batch_shape[:1] != (1,) or plain.coeffs[..., lanes:].any():
        raise EncodingError(
            f"plaintext batch {plain.batch_shape} is not lane-encoded as "
            f"(1, *rest) for a batch of {lanes}"
        )
    return np.moveaxis(plain.signed_coeffs()[0, ..., :lanes], -1, 0)


def write_lanes(context: Context, values: np.ndarray) -> Plaintext:
    """Inverse of :func:`read_lanes`: row ``b`` of ``(B, *rest)`` values goes
    to coefficient ``b`` of a ``(1, *rest)`` plaintext batch."""
    if values.shape[0] > context.poly_degree:
        raise EncodingError(
            f"{values.shape[0]} lanes exceed the ring degree {context.poly_degree}"
        )
    coeffs = np.zeros((1, *values.shape[1:], context.poly_degree), dtype=np.int64)
    coeffs[0, ..., : values.shape[0]] = np.moveaxis(values, 0, -1)
    return Plaintext(context, coeffs)  # reduces mod t
