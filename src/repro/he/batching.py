"""Polynomial coefficients as the one packing layout (the paper's Section
VIII): the served request format's images, and lanes.

The paper predicts that packing ``n`` values per ciphertext buys up to
``n``x the throughput.  Packing here uses polynomial coefficients under any
plaintext modulus: no CRT slot transform, no batching prime.

A served request is one *image* per polynomial (:class:`ImageLayout`):
:func:`write_image` puts pixel ``(i, j)`` in coefficient ``i*W + j``, a
convolution is then one plaintext-polynomial product per (filter, channel),
and :func:`read_image` picks each conv output back out of the coefficient it
lands in.  The packed flush (and the in-process SIMD pipeline, which walks
its chain) stacks ``n // (H*W)`` images per polynomial with
:func:`pack_coefficients`' ``stride``.

A served result is *lanes*: one polynomial per image, class ``c`` in
coefficient ``c``.  :func:`write_lanes` / :func:`read_lanes` lay values out
along coefficients ``0..B-1`` and read them back (with zero probes past the
lanes); a scalar acts on every lane alike, which the ``ablation_simd`` row of
``benchmarks/bench_paper.py`` measures.  :func:`pack_coefficients` with
stride 1 folds scalar ciphertexts into lanes homomorphically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import EncodingError, KeyMismatchError
from repro.he.context import Ciphertext, Context, Plaintext
from repro.he.evaluator import Evaluator


@dataclass(frozen=True)
class ImageLayout:
    """Where the served request format puts an ``H x W`` image and the
    outputs of a ``kernel x kernel`` convolution of it.

    Pixel ``(i, j)`` rides coefficient ``i*W + j``; image ``b`` of a packed
    polynomial is shifted by ``x^(H*W*b)`` (a *block*).  The product with
    ``K(x) = sum_{u,v} w[u, v] x^((k-1-u)W + (k-1-v))`` leaves output ``(i,
    j)`` in coefficient ``(i*s + k-1)*W + (j*s + k-1)`` of the image's block
    and partial sums in the coefficients between.  A block's products reach
    at most :attr:`spill` coefficients into the next block, exactly up to
    that block's first output, so packed images never mix; the last block's
    negacyclic wrap lands below block 0's first output the same way.

    Attributes:
        height / width: the image side lengths ``H`` / ``W``.
        kernel / stride: the convolution's ``k`` and ``s``.
        bound: the largest ``|coefficient|`` an honest conv output holds --
            at most ``C * k^2`` taps plus the bias, on outputs and partial
            sums alike -- which the crossing checks every coefficient against.
    """

    height: int
    width: int
    kernel: int
    stride: int
    bound: int

    @property
    def pixels(self) -> int:
        return self.height * self.width

    @property
    def spill(self) -> int:
        """Coefficients one block's conv products reach past its own end."""
        return (self.kernel - 1) * (self.width + 1)

    @property
    def out_shape(self) -> tuple[int, int]:
        k, s = self.kernel, self.stride
        return (self.height - k) // s + 1, (self.width - k) // s + 1

    def per_ciphertext(self, poly_degree: int) -> int:
        """Images one polynomial of ``poly_degree`` coefficients carries."""
        return poly_degree // self.pixels

    def kernel_offsets(self) -> np.ndarray:
        """``(k, k)`` coefficient of tap ``(u, v)`` in ``K(x)``."""
        taps = self.kernel - 1 - np.arange(self.kernel)
        return taps[:, None] * self.width + taps[None, :]

    def output_offsets(self) -> np.ndarray:
        """``(OH, OW)`` coefficient of each conv output within its block."""
        oh, ow = self.out_shape
        last = self.kernel - 1
        rows = np.arange(oh) * self.stride + last
        cols = np.arange(ow) * self.stride + last
        return rows[:, None] * self.width + cols[None, :]


def write_image(context: Context, pixels: np.ndarray) -> Plaintext:
    """``(B, C, H, W)`` integer pixels as a ``(B, C)`` plaintext batch, one
    polynomial per image channel with pixel ``(i, j)`` in coefficient
    ``i*W + j``; :class:`EncodingError` when ``H*W`` exceeds the ring."""
    if pixels.ndim != 4:
        raise EncodingError(f"images must be (B, C, H, W), got shape {pixels.shape}")
    b, c, h, w = pixels.shape
    n = context.poly_degree
    if h * w > n:
        raise EncodingError(f"a {h}x{w} image does not fit {n} coefficients")
    coeffs = np.zeros((b, c, n), dtype=np.int64)
    coeffs[..., : h * w] = pixels.reshape(b, c, h * w)
    return Plaintext(context, coeffs)  # reduces mod t


def read_image(
    plain: Plaintext, layout: ImageLayout, batch: int | None = None, per: int = 1
) -> np.ndarray:
    """The ``(batch, F, OH, OW)`` conv outputs of a ``(rows, F)`` plaintext
    batch holding ``per`` images per row -- one on the direct path (``batch``
    defaults to ``rows``), the flush's :meth:`ImageLayout.per_ciphertext`
    when packed: image ``b`` in block ``b % per`` of row ``b // per``.

    Raises:
        EncodingError: ``batch`` does not fill exactly ``rows`` rows; a
            coefficient beyond ``layout.bound`` (a noise-exhausted output
            decodes uniformly, so passes with probability ``2 bound / t``);
            or a non-zero coefficient that no occupied block reaches -- a
            stray value past an image, or a batch declared smaller than the
            one folded (unused blocks, valid positions included, are zero).
    """
    if len(plain.batch_shape) != 2:
        raise EncodingError(
            f"image outputs are (rows, F) polynomials, got batch shape {plain.batch_shape}"
        )
    rows = plain.batch_shape[0]
    batch = rows if batch is None else batch
    if batch < 1 or -(-batch // per) != rows:
        raise EncodingError(
            f"batch must be in [{(rows - 1) * per + 1}, {rows * per}] for {rows} "
            f"ciphertexts at {per} images each, got {batch}"
        )
    values = plain.signed_coeffs()
    if (np.abs(values) > layout.bound).any():
        raise EncodingError(
            f"plaintext is not image-encoded: a coefficient exceeds the conv bound "
            f"+-{layout.bound}"
        )
    occupied = np.minimum(per, batch - per * np.arange(rows))
    reach = occupied * layout.pixels + layout.spill
    stray = np.arange(plain.context.poly_degree) >= reach[:, None]
    if (values * stray[:, None, :]).any():
        raise EncodingError(
            f"plaintext is not image-encoded for a batch of {batch}: a coefficient "
            "no image reaches is not zero"
        )
    images = np.arange(batch)
    at = (images % per)[:, None] * layout.pixels + layout.output_offsets().reshape(1, -1)
    picked = np.take_along_axis(values[images // per], at[:, None, :], axis=-1)
    return picked.reshape(batch, values.shape[1], *layout.out_shape)


def _monomial_rows(context: Context, count: int) -> np.ndarray:
    """NTT residues ``(count, k_rns, n)`` of ``x^0 .. x^(count-1)``, read from
    the context's prefix memo: row ``b`` is ``NTT(x^b)`` whatever ``count``
    is, so the memo only ever grows to the largest ``count`` seen -- at most
    ``n`` rows, ``pack_coefficients``' own limit -- and a repeat or smaller
    request transforms nothing."""
    memo = context._monomial_ntt
    have = 0 if memo is None else memo.shape[0]
    if count > have:
        memo = _monomials(context, np.arange(have, count), memo)
        context._monomial_ntt = memo
    return memo[:count]


def _monomials(context: Context, powers: np.ndarray, before=None) -> np.ndarray:
    """Read-only NTT residues of ``x^p`` for each of ``powers``, appended to
    ``before``'s rows when given."""
    fresh = np.zeros((len(powers), context.poly_degree), dtype=np.int64)
    fresh[np.arange(len(powers)), powers] = 1
    rows = context.ring.ntt(context.ring.from_signed_small(fresh))
    if before is not None:
        rows = np.concatenate([before, rows])
    rows.flags.writeable = False  # every fold reads views of it
    return rows


def stride_monomials(context: Context, stride: int) -> np.ndarray:
    """NTT residues ``(n // stride, k_rns, n)`` of ``x^(stride * p)``, one row
    per image block, memoised per stride on the context.  Kept out of the
    prefix memo, which would otherwise grow to every power below the last
    block's (1008 rows, 16.5 MB at n = 1024 and 12 x 12 images)."""
    memo = context._stride_monomials.get(stride)
    if memo is None:
        powers = stride * np.arange(context.poly_degree // stride)
        memo = context._stride_monomials[stride] = _monomials(context, powers)
    return memo


def pack_coefficients(
    evaluator: Evaluator, ct: Ciphertext | Sequence[Ciphertext], stride: int = 1
) -> Ciphertext:
    """Fold leading batch axes into polynomial *coefficients*.

    Given scalar-encoded ciphertexts ``(B, *rest)`` (value in the constant
    coefficient) -- one ciphertext, or a sequence of parts ``(B_i, *rest)``
    standing for their concatenation along axis 0, which is never built --
    homomorphically computes ``sum_b ct[b] * x^b``: a ``(*rest,)``
    ciphertext whose underlying plaintext carries value ``b`` in coefficient
    ``b``.  Pure host-side ``C x P`` / ``C + C`` work: no key material, no
    decryption, and the parts are read where they lie (views, strided and
    read-only data included) by :meth:`Evaluator.sum_products`.

    With ``stride > 1`` it is the packed flush's fold
    of image-encoded requests (:class:`ImageLayout`, ``stride = H*W``):
    ``P = n // stride`` images per ciphertext, image ``b`` at ``x^(stride *
    (b % P))`` of row ``b // P``, a ``(ceil(B / P), *rest)`` ciphertext.
    Noise grows by at most ``log2(min(B, P))`` bits (monomial coefficients
    are 1), which a fresh encryption easily absorbs.

    Raises:
        EncodingError: no parts; a part (named by its index) with no batch
            axis, of a foreign context, in coefficient domain or with a
            trailing shape unlike part 0's; ``B`` beyond the ring degree
            (stride 1); or a stride wider than the ring.
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
    n = context.poly_degree
    if stride > 1:
        if stride > n:
            raise EncodingError(f"a stride of {stride} exceeds the ring degree {n}")
        monomials = stride_monomials(context, stride)
        per = len(monomials)
        out = np.empty((-(-len(rows) // per), *rows[0].shape), dtype=np.int64)
        for j in range(len(out)):
            group = rows[j * per : (j + 1) * per]
            out[j] = evaluator.sum_products(group, monomials[: len(group)]).data
        return Ciphertext(context, out, is_ntt=True)
    if len(rows) > n:
        raise EncodingError(f"batch of {len(rows)} exceeds the ring degree {n}")
    # Row b is NTT(x^b), broadcast over the remaining axes and components.
    return evaluator.sum_products(rows, _monomial_rows(context, len(rows)))


def read_lanes(plain: Plaintext, lanes: int) -> np.ndarray:
    """Signed values ``(lanes, *rest)`` from coefficients ``0..lanes-1`` of a
    ``(1, *rest)`` plaintext batch; :class:`EncodingError` unless every
    coefficient past them is zero (the scalar decode's probes, ``n - lanes``).

    A served result is read this way: ``(B,)`` ciphertexts, one per image,
    whose ``(1, B)`` reshape holds the logits along the class axis: class
    ``c`` of image ``b`` in coefficient ``c``."""
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
