"""Homomorphic CNN building blocks shared by both encrypted pipelines.

The paper's framework keeps every *linear* layer under HE outside the
enclave (Section IV-C): convolution and the fully connected layer decompose
into ciphertext-plaintext multiplications (``C x P``) and ciphertext
additions (``C + C``).  These helpers operate on *batched* ciphertexts whose
batch axes mirror the tensor layout ``(B, C, H, W)``, one ciphertext per
pixel, exactly the paper's non-SIMD encoding -- except on the serving
paths and the SIMD pipeline (at any depth), which walk the serving flush's
chain: their convolution (:func:`encode_image_conv`, one per block) takes
``(B, C)`` ciphertexts carrying one image each in their coefficients, and
their fc runs inside the enclave's last activation crossing, on plaintext
(:func:`encode_served_weights`).

Weights are pre-encoded once (Section IV-B / Fig. 3) via
:func:`encode_model_weights`; the returned operand table is reused across
every inference.  Encoding is also where the two exact facts about a weight
operand are worked out, once (:func:`_plan_contraction`): which fan-in terms
are zero in every output (skipped -- an exactly-zero contribution) and
whether the bias fits the fused kernel's int64 slack (folded into the
accumulator instead of a separate pass).  Both ride on the encoded weights
into the one scalar-contraction kernel (:mod:`repro.he.contraction`), which
every fused layer calls once, in the calling process.  A layer that runs
the per-tap reference loop instead (weights encoded by the oracle context,
:mod:`repro.he.oracle`, or past the int64 bound) produces the same bytes
without them, and recorded op tallies always reflect the *reference* op
structure (full tap counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError, PipelineError
from repro.he import contraction
from repro.he.batching import ImageLayout, stride_monomials
from repro.he.context import Ciphertext, Context, Plaintext, TensorProduct
from repro.he.encoders import ScalarEncoder
from repro.he.evaluator import Evaluator, PlainOperand

#: Elementwise cap on the gathered tap-window stack (16 MiB of int64, the
#: cap ``polyring._MUL_SUM_CHUNK_ELEMS`` uses).  The gather is the conv's
#: largest transient and, on a non-trimming heap, sets the process's
#: high-water mark once nothing else leaves a hole that size.  Any chunk
#: gives the same bytes (exact int64 adds); every extra chunk costs one more
#: pass over the output (direct_closed conv: 14.0 ms unchunked, 15.1 at
#: 2^21, 19.1 at 2^20).
_TAP_CHUNK_ELEMS = 1 << 21


def _signed_weights(encoder: ScalarEncoder, weight: np.ndarray) -> np.ndarray:
    """The signed integers ``transform_plain(encoder.encode(weight))``
    multiplies by: ``weight`` itself, except that for even ``t`` the edge
    value ``-t/2`` encodes as ``+t/2`` (the centered range is
    ``(-t/2, t/2]``)."""
    t = encoder.context.plain_modulus
    residues = np.asarray(weight, dtype=np.int64) % t
    return np.where(residues > t // 2, residues - t, residues)


@dataclass(eq=False)
class EncodedConvWeights:
    """NTT-precomputed conv weights + integer bias.

    Attributes:
        operands: object array ``(F, C, k, k)`` of :class:`PlainOperand`
            (what the per-tap reference loop multiplies by).
        bias: int64 array ``(F,)`` at conv-output scale.
        stride: the convolution stride.
        bias_operand: broadcastable ``(F, 1, 1)``-batched ``Delta * bias``
            :class:`PlainOperand` precomputed at encode time.
        weight_taps: int64 array ``(F, T)`` of the signed integer weights
            (``T = C * k * k``, row-major over ``(C, i, j)``, the reference
            loop's order), kept from encode time -- the fused kernel's
            operand.
        keep / fold_bias / fused: see :func:`_plan_contraction`.
    """

    operands: np.ndarray
    bias: np.ndarray
    stride: int
    bias_operand: PlainOperand
    weight_taps: np.ndarray
    keep: tuple[int, ...] | None
    fold_bias: bool
    fused: bool

    @property
    def out_channels(self) -> int:
        return self.operands.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.operands.shape[-1]


@dataclass(eq=False)
class ImageConvWeights:
    """The served request format's conv operands, encoded once at
    provisioning.

    Attributes:
        layout: where images and conv outputs sit in a polynomial.
        kernels: ``(F, C)`` NTT operand of ``K_{f,c}(x) = sum_{u,v} w[f, c,
            u, v] x^((k-1-u)W + (k-1-v))``.
        bias: ``(P, F)`` NTT operand of ``Delta * bias_f`` at the conv
            outputs of blocks ``0..m-1`` in row ``m - 1``: a ciphertext with
            ``m`` occupied blocks takes row ``m - 1``, so the coefficients of
            unused blocks stay zero.
    """

    layout: ImageLayout
    kernels: PlainOperand
    bias: PlainOperand


def encode_image_conv(
    evaluator: Evaluator, block, layout: ImageLayout
) -> ImageConvWeights:
    """Encode one conv block (:class:`~repro.nn.quantize.QuantizedConvBlock`)
    for images laid out by ``layout`` (a ``crossing_image`` node's ``image``)."""
    context = evaluator.context
    n = context.poly_degree
    weight = np.asarray(block.weight, dtype=np.int64)
    f, c, k, _ = weight.shape
    taps = np.zeros((f, c, n), dtype=np.int64)
    taps[..., layout.kernel_offsets().ravel()] = weight.reshape(f, c, k * k)
    bias = np.zeros((f, n), dtype=np.int64)
    bias[:, layout.output_offsets().ravel()] = np.asarray(block.bias)[:, None]
    # Block 0's bias shifted onto each block by the fold's own monomials
    # (built here, at provisioning, not by a request), then prefix-summed.
    ring = context.ring
    first = evaluator.transform_plain_delta(Plaintext(context, bias)).data
    shifted = ring.pointwise_mul(first, stride_monomials(context, layout.pixels)[:, None])
    rows = [shifted[0]]
    for term in shifted[1:]:
        rows.append(ring.add(rows[-1], term))
    return ImageConvWeights(
        layout,
        evaluator.transform_plain(Plaintext(context, taps)),
        PlainOperand(context, np.stack(rows)),
    )


def encode_served_weights(evaluator: Evaluator, quantized, graph) -> dict:
    """The weights of ``graph``'s image chain, by stage: each block's
    :func:`encode_image_conv` operands at the layout its crossing reads, and
    fc's public integer ``(D, O)`` weight and ``(O,)`` bias, which the last
    crossing takes per call."""
    convs = [node.stage for node in graph.nodes if node.op == "conv"]
    layouts = [node.attrs["image"] for node in graph.nodes if node.op == "crossing_image"]
    weights = {
        stage: encode_image_conv(evaluator, block, layout)
        for stage, block, layout in zip(convs, quantized.blocks, layouts, strict=True)
    }
    weights["fc"] = tuple(
        np.asarray(a, dtype=np.int64) for a in (quantized.dense_weight, quantized.dense_bias)
    )
    return weights


@dataclass(eq=False)
class EncodedDenseWeights:
    """FC weights as the scalar contraction reads them + integer bias.

    A scalar weight's NTT operand is the weight's residue in every slot, so
    the signed integers are the whole precomputation: the fused kernel
    multiplies residues by them directly, and only the per-class reference
    loop encodes and transforms a class's row, per call (``(D, k_rns, n)``
    words per class, which the weights do not need to pin).

    Attributes:
        bias: int64 array ``(O,)`` at logit scale.
        bias_operand: ``(O,)``-batched ``Delta * bias`` operand precomputed
            at encode time.
        bias_coeff: the same operand in the coefficient domain --
            ``Delta * bias mod p`` at coefficient 0 -- for an input that
            arrives there (the pure-HE chain's rescaled logits).
        weight_matrix: int64 array ``(O, D)`` of the signed integer weights
            kept from encode time -- the fused kernel computes all classes
            in one pass over it.
        keep / fold_bias / fused: see :func:`_plan_contraction`.
    """

    bias: np.ndarray
    bias_operand: PlainOperand
    bias_coeff: PlainOperand
    weight_matrix: np.ndarray
    keep: tuple[int, ...] | None
    fold_bias: bool
    fused: bool

    @property
    def in_features(self) -> int:
        return self.weight_matrix.shape[1]

    @property
    def out_features(self) -> int:
        return self.weight_matrix.shape[0]


@dataclass(eq=False)
class EncodedModel:
    """A quantized CNN's full NTT-precomputed operand set.

    One object per model: the conv and dense operand tables the scalar
    in-process pipelines (hybrid, CryptoNets) reuse across inferences.
    """

    conv: EncodedConvWeights
    dense: EncodedDenseWeights


def encode_model_weights(
    evaluator: Evaluator, encoder: ScalarEncoder, quantized
) -> EncodedModel:
    """Encode a one-block quantized model's conv + FC weights once (Section
    IV-B): ``quantized.blocks[0]``'s ``weight`` / ``bias`` / ``stride`` and
    ``quantized.dense_weight`` / ``dense_bias`` (a
    :class:`~repro.nn.quantize.QuantizedCNN`).
    """
    block = quantized.blocks[0]
    conv = encode_conv_weights(evaluator, encoder, block.weight, block.bias, block.stride)
    dense = encode_dense_weights(
        evaluator, encoder, quantized.dense_weight, quantized.dense_bias
    )
    return EncodedModel(conv, dense)


def encode_conv_weights(
    evaluator: Evaluator,
    encoder: ScalarEncoder,
    weight: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
) -> EncodedConvWeights:
    """Encode integer conv weights into reusable NTT plaintext operands."""
    f, c, kh, kw = weight.shape
    operands = np.empty((f, c, kh, kw), dtype=object)
    for fi in range(f):
        for ci in range(c):
            for i in range(kh):
                for j in range(kw):
                    operands[fi, ci, i, j] = evaluator.transform_plain(
                        encoder.encode(int(weight[fi, ci, i, j]))
                    )
    bias = np.asarray(bias, dtype=np.int64)
    # Delta-scaled bias, encoded once with a (F, 1, 1) batch shape that
    # broadcasts over any (B, F, OH, OW) conv output -- no per-inference
    # np.full(...) re-encoding.
    bias_operand = evaluator.transform_plain_delta(
        encoder.encode(bias.reshape(f, 1, 1))
    )
    weight_taps = _signed_weights(encoder, weight).reshape(f, -1)
    return EncodedConvWeights(
        operands, bias, stride, bias_operand, weight_taps,
        *_plan_contraction(weight_taps, evaluator.context),
    )


def encode_dense_weights(
    evaluator: Evaluator,
    encoder: ScalarEncoder,
    weight: np.ndarray,
    bias: np.ndarray,
) -> EncodedDenseWeights:
    """Encode integer FC weights for the scalar contraction."""
    bias = np.asarray(bias, dtype=np.int64)
    bias_operand = evaluator.transform_plain_delta(encoder.encode(bias))
    bias_coeff = PlainOperand(
        evaluator.context, evaluator.context.ring.intt(bias_operand.data), is_ntt=False
    )
    weight_matrix = np.ascontiguousarray(_signed_weights(encoder, weight).T)
    return EncodedDenseWeights(
        bias, bias_operand, bias_coeff, weight_matrix,
        *_plan_contraction(weight_matrix, evaluator.context),
    )


def _plan_contraction(
    values: np.ndarray, context: Context
) -> tuple[tuple[int, ...] | None, bool, bool]:
    """``(keep, fold_bias, fused)`` for an ``(outputs, terms)`` weight matrix.

    ``keep``: the terms (conv: row-major ``(C, i, j)`` taps; dense:
    flattened input dims) with a non-zero weight in some output, or None
    when every term survives.  ``fold_bias``: the surviving weights leave
    the int64 accumulator room for one more canonical residue term, so the
    kernel adds the bias before its single mod-p pass -- exact because
    ``(acc + bias) mod p == (acc mod p + bias) mod p``.  ``fused``: the
    surviving weights keep the contraction inside the ring's deferred-sum
    budget at all; otherwise (always, under the oracle's ring, which defers
    no sum) the layer runs the per-tap reference loop.
    """
    nonzero = np.flatnonzero(values.any(axis=0))
    keep = None if nonzero.size == values.shape[1] else tuple(int(t) for t in nonzero)
    surviving = values[:, nonzero]
    budget = context.ring.max_sum_terms
    fold_bias = contraction.bound_ok(surviving, budget, slack=1)
    return keep, fold_bias, fold_bias or contraction.bound_ok(surviving, budget)


def _add_bias(
    evaluator: Evaluator, out: Ciphertext, bias_operand: PlainOperand, folded: bool
) -> Ciphertext:
    """The layer's ``plain_add``: a separate pass over ``out``, or only its
    tally when the kernel already folded the bias into the accumulator."""
    if not folded:
        return evaluator.add_plain_operand(out, bias_operand)
    if evaluator.counter is not None:
        evaluator.counter.record("plain_add", max(1, out.batch_count))
    return out


def he_conv2d(
    evaluator: Evaluator,
    encoder: ScalarEncoder,
    ct: Ciphertext,
    weights: EncodedConvWeights | ImageConvWeights,
    folded: int = 1,
) -> Ciphertext:
    """Homomorphic convolution over a ``(B, C, H, W)`` ciphertext batch.

    For each kernel tap the input window slice (a strided view over the
    batch axes) is multiplied by the encoded scalar weight and accumulated,
    i.e. ``k*k*C`` C x P and C + C operations per output map -- the exact op
    structure Fig. 4 measures.

    With :class:`ImageConvWeights` the input is the served request format
    instead (:func:`_he_conv2d_image`), ``folded`` the images of a packed
    flush's fold.
    """
    if isinstance(weights, ImageConvWeights):
        return _he_conv2d_image(evaluator, ct, weights, folded)
    if len(ct.batch_shape) != 4:
        raise PipelineError(
            f"he_conv2d expects a (B, C, H, W) ciphertext batch, got {ct.batch_shape}"
        )
    b, c, h, w = ct.batch_shape
    if c != weights.operands.shape[1]:
        raise PipelineError(
            f"ciphertext has {c} channels, weights expect {weights.operands.shape[1]}"
        )
    k = weights.kernel_size
    s = weights.stride
    if h < k or w < k:
        raise PipelineError(f"{h}x{w} input is smaller than the {k}x{k} kernel")
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1
    if weights.fused:
        return _he_conv2d_fused(evaluator, ct, weights, oh, ow)
    per_channel: list[Ciphertext] = []
    for fi in range(weights.out_channels):
        acc: Ciphertext | None = None
        for ci in range(c):
            for i in range(k):
                for j in range(k):
                    window = ct[:, ci, i : i + oh * s : s, j : j + ow * s : s]
                    term = evaluator.multiply_plain(window, weights.operands[fi, ci, i, j])
                    acc = term if acc is None else evaluator.add(acc, term)
        bias_plain = encoder.encode(
            np.full((b, oh, ow), int(weights.bias[fi]), dtype=np.int64)
        )
        per_channel.append(evaluator.add_plain(acc, bias_plain))
    data = np.stack([m.data for m in per_channel], axis=1)
    return Ciphertext(ct.context, data, is_ntt=per_channel[0].is_ntt)


def _he_conv2d_fused(
    evaluator: Evaluator,
    ct: Ciphertext,
    weights: EncodedConvWeights,
    oh: int,
    ow: int,
) -> Ciphertext:
    """Tap-batched convolution: the whole ``F * C * k * k`` tap sum is one
    signed int64 matmul over the raw weights (:func:`_plan_contraction`
    checked ``sum |w| * p`` against int64) followed by a single mod-p pass --
    :func:`repro.he.contraction.conv`.  Bit-identical to the per-tap
    reference loop (mod-p sums are associative and every partial stays
    exact), with the reference loop's op tallies.
    """
    ct = ct.to_ntt()
    data = ct.data  # (B, C, H, W, size, k_rns, n)
    f, t = weights.weight_taps.shape
    outputs = data.shape[0] * oh * ow
    out = contraction.conv(
        data,
        weights.weight_taps,
        k=weights.kernel_size,
        s=weights.stride,
        oh=oh,
        ow=ow,
        primes=[int(p) for p in ct.context.ring.primes],
        chunk=max(1, _TAP_CHUNK_ELEMS // max(1, outputs * int(np.prod(data.shape[-3:])))),
        keep=weights.keep,
        bias=weights.bias_operand.data if weights.fold_bias else None,
    )
    if evaluator.counter is not None:
        evaluator.counter.record("ct_plain_mul", f * t * outputs)
        if t > 1:  # the reference loop issues no add() for a single tap
            evaluator.counter.record("ct_add", f * (t - 1) * outputs)
    out = Ciphertext(ct.context, out, is_ntt=True)
    return _add_bias(evaluator, out, weights.bias_operand, weights.fold_bias)


def _he_conv2d_image(
    evaluator: Evaluator, ct: Ciphertext, weights: ImageConvWeights, folded: int
) -> Ciphertext:
    """Convolution of image-encoded ``(rows, C)`` ciphertexts: ``out[r, f] =
    sum_c ct[r, c] * K_{f,c}``, one NTT-domain product per (filter, channel)
    -- ``(rows, F)`` ciphertexts holding every output (and partial sums
    between them) where :class:`ImageLayout` says.  Each row holds one image
    (``folded == 1``: the direct path, or a one-image flush) or the flush's
    ``folded`` images ``P`` per row; the bias lands on occupied blocks only."""
    operands = weights.kernels.data  # (F, C, k_rns, n)
    if len(ct.batch_shape) != 2 or ct.batch_shape[1] != operands.shape[1]:
        raise PipelineError(
            f"image conv expects (B, {operands.shape[1]}) ciphertexts, got "
            f"{ct.batch_shape}"
        )
    rows = ct.batch_shape[0]
    occupied = np.ones(rows, dtype=np.int64)
    if folded > 1:
        per = weights.layout.per_ciphertext(ct.context.poly_degree)
        if -(-folded // per) != rows:
            raise PipelineError(
                f"{rows} ciphertexts cannot hold {folded} images at {per} each"
            )
        occupied = np.minimum(per, folded - per * np.arange(rows))
    data = ct.to_ntt().data  # (rows, C, size, k_rns, n)
    out = evaluator.sum_products(
        [data[:, c, None] for c in range(operands.shape[1])],
        [operands[:, c, None] for c in range(operands.shape[1])],
    )
    bias = PlainOperand(ct.context, weights.bias.data[occupied - 1])
    return evaluator.add_plain_operand(out, bias)


def he_square(evaluator: Evaluator, ct: Ciphertext) -> TensorProduct:
    """CryptoNets activation: the homomorphic elementwise square, left
    unscaled (:meth:`Evaluator.tensor_product`) -- pool and fc are integer
    linear maps, so they run on the exact products and :func:`he_dense`
    rounds once per logit (DESIGN.md section 10)."""
    return evaluator.tensor_product(ct, ct)


def he_scaled_mean_pool(
    evaluator: Evaluator, ct: Ciphertext | TensorProduct, window: int
) -> Ciphertext | TensorProduct:
    """Division-free pooling: homomorphic window sum (``EncryptedSum``), of
    ciphertexts or of unscaled squares."""
    if len(ct.batch_shape) != 4:
        raise PipelineError("he_scaled_mean_pool expects a (B, C, H, W) batch")
    _, _, h, w = ct.batch_shape
    if window < 1:
        raise PipelineError(f"pooling window must be >= 1, got {window}")
    if h % window or w % window:
        raise PipelineError(f"feature map {h}x{w} not divisible by window {window}")
    return evaluator.add_many(
        [ct[:, :, i::window, j::window] for i in range(window) for j in range(window)]
    )


def he_dense(
    evaluator: Evaluator,
    encoder: ScalarEncoder,
    ct: Ciphertext | TensorProduct,
    weights: EncodedDenseWeights,
) -> Ciphertext:
    """Homomorphic fully connected layer over a flattened ciphertext batch.

    Produces a ``(B, O)`` ciphertext of scaled logits: for every output
    class the flattened input batch is multiplied element-wise by that class's
    weight vector and folded with a batched C + C reduction.  Unscaled
    squares (the pure-HE chain) are contracted and then rescaled, once per
    logit (:func:`_he_dense_rescaled`).
    """
    b = ct.batch_shape[0]
    flat = ct.reshape(b, -1)
    d = flat.batch_shape[1]
    if weights.in_features != d:
        raise PipelineError(
            f"dense operand covers {weights.in_features} inputs, ciphertext provides {d}"
        )
    if isinstance(flat, TensorProduct):
        return _he_dense_rescaled(evaluator, flat, weights)
    if weights.fused:
        return _he_dense_fused(evaluator, flat, weights)
    flat = flat.to_ntt()  # once, not per class
    outputs: list[Ciphertext] = []
    for oi, row in enumerate(weights.weight_matrix):
        products = evaluator.multiply_plain(flat, encoder.encode(row))
        summed = evaluator.sum_batch(products, axis=1)
        bias_plain = encoder.encode(np.full((b,), int(weights.bias[oi]), dtype=np.int64))
        outputs.append(evaluator.add_plain(summed, bias_plain))
    data = np.stack([o.data for o in outputs], axis=1)
    return Ciphertext(ct.context, data, is_ntt=outputs[0].is_ntt)


def _he_dense_fused(
    evaluator: Evaluator,
    flat: Ciphertext,
    weights: EncodedDenseWeights,
) -> Ciphertext:
    """All-classes FC kernel: one signed int64 matmul over the ``(O, D)``
    integer weights computes every output class at once, one mod-p pass
    after the whole contraction -- :func:`repro.he.contraction.dense`;
    bit-identical to the per-class loop (up to the domain), with matching
    op tallies.

    A contraction by integers is the same residues in either domain, so it
    runs in the input's: a product :meth:`Evaluator.multiply` returns is in
    the coefficient domain, and the bias is added there as ``Delta * b`` at
    coefficient 0."""
    b, d = flat.batch_shape
    o = weights.out_features
    bias_operand = weights.bias_operand if flat.is_ntt else weights.bias_coeff
    out = contraction.dense(
        flat.data,
        weights.weight_matrix,
        primes=[int(p) for p in flat.context.ring.primes],
        keep=weights.keep,
        bias=bias_operand.data if weights.fold_bias else None,
    )
    if evaluator.counter is not None:
        evaluator.counter.record("ct_plain_mul", o * b * d)
        evaluator.counter.record("ct_add", o * (d - 1) * b)
    out = Ciphertext(flat.context, out, is_ntt=flat.is_ntt)
    return _add_bias(evaluator, out, bias_operand, weights.fold_bias)


def _he_dense_rescaled(
    evaluator: Evaluator, flat: TensorProduct, weights: EncodedDenseWeights
) -> Ciphertext:
    """FC on unscaled squares: the integer contraction of
    :func:`repro.he.contraction.dense` runs on the products ``d``
    themselves, modulo q's primes and the auxiliary basis, then
    :meth:`Evaluator.rescale` rounds each logit once and ``Delta * b`` is
    added in the coefficient domain the rescale returns.  One rounding per
    logit where rescaling every square first made ``||L||_1`` of them, so
    the ciphertext is FV's own ``round(t/q * sum L d)``; the op tallies are
    :func:`_he_dense_fused`'s."""
    context = flat.context
    primes = context.product_primes
    if not contraction.bound_ok(weights.weight_matrix, ((1 << 63) - 1) // (max(primes) - 1)):
        raise ParameterError(
            "fc weights are too wide for the int64 contraction of unscaled squares"
        )
    b, d = flat.batch_shape
    o = weights.out_features
    out = contraction.dense(
        flat.data, weights.weight_matrix, primes=primes, keep=weights.keep
    )
    if evaluator.counter is not None:
        evaluator.counter.record("ct_plain_mul", o * b * d)
        evaluator.counter.record("ct_add", o * (d - 1) * b)
    logits = evaluator.rescale(TensorProduct(context, out, flat.is_ntt))
    return evaluator.add_plain_operand(logits, weights.bias_coeff)
