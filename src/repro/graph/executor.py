"""Execute an inference graph: the one place an HE chain runs.

Every pipeline (hybrid, CryptoNets, SIMD at any depth), ``EdgeServer.infer``
and the scheduler's packed flush hand :func:`run` a graph plus a
:class:`Resources` value naming exactly what the walk may touch, and get
back the result ciphertext (and, when the graph ends in a decrypt node,
the logits and the measured noise budget).  The walk looks each node's
opcode up in :data:`OPS` and emits the node's stage span stamped with its
graph identity, so traces, metrics, op tallies and the node profiler see
every chain the same way.  The walk of each graph kind performs the HE
ops, ECALLs and RNG draws of the hand-written chain it replaced, in the
same order — that is what makes the differential equivalence suite
meaningful — except SIMD's (at any depth: one conv and one crossing per
block), which walks the packed flush's own nodes between the user's
encrypt and decrypt instead.

Handlers reach ``heops.he_conv2d`` / ``heops.he_dense`` through the module
and ``pack_coefficients`` through this module's global at call time, never
through a reference captured in the table, so tooling that wraps those
names (``benchmarks/e2e/spans.py``) sees every call.

The walk rewrites nothing: every graph runs as built.  The exact
operand-local rewrites (zero-column skip and bias fold in ``heops``, the
encryptor's constant-coefficient path, the square's one transform and
lift of its single factor, the packing-monomial memo) happen inside the
calls below, and so does the pure-HE chain's deferred rescale: ``square``
hands pool and fc the unscaled product, and fc rounds once per logit.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core import heops
from repro.errors import PipelineError
from repro.graph import ir
from repro.he.batching import pack_coefficients, read_lanes, write_image
from repro.he.context import Ciphertext
from repro.he.evaluator import Evaluator


@dataclass
class Resources:
    """Everything one graph walk may touch, handed in by the graph's owner.

    Attributes:
        tracer: emits the stage spans (with ``evaluator.counter`` and the
            enclave's side-channel log bound, so spans carry op and
            crossing deltas).
        evaluator / encoder: the untrusted side's HE endpoints.
        weights: encoded weights by contraction stage name (``conv``,
            ``fc``, ``conv_0`` ...); on the image chain ``fc`` is the
            public integer ``(weight, bias)`` pair its last crossing takes.
        enclave: handle the crossing nodes ECALL into.
        encryptor / decryptor / quantize: the user role, for graphs that
            start at raw images and end at logits.
        relin_keys: CryptoNets' evaluation keys.
    """

    tracer: Any
    evaluator: Evaluator
    encoder: Any
    weights: Mapping[str, Any]
    enclave: Any = None
    encryptor: Any = None
    decryptor: Any = None
    quantize: Callable[[np.ndarray], np.ndarray] | None = None
    relin_keys: Any = None

    def stage(self, name: str):
        return self.tracer.stage(
            name,
            counter=self.evaluator.counter,
            side_channel=getattr(self.enclave, "side_channel", None),
        )


@dataclass
class _Walk:
    """Per-run state the handlers share: how many images (or stacked
    requests) ride this walk, how many of them a ``fold`` packed (1 = none),
    and what a decrypt node produced."""

    batch: int
    folded: int = 1
    logits: np.ndarray | None = None
    budget: float | None = None


@functools.lru_cache(maxsize=1024)
def _signature_text(signature: tuple) -> str:
    """One string per node signature, shared by the spans of every walk: a
    retained trace holds a reference, not its own formatted copy."""
    return str(signature)


@contextmanager
def _node_stage(env: Resources, node: ir.GraphNode):
    """Open the node's stage span and stamp its graph identity onto it.

    The stamped attrs are what :mod:`repro.obs.profile` keys measured
    costs by: the full node signature (op + stage + level + noise
    annotations + attrs), so two nodes that share a stage name but not
    their attrs profile as distinct nodes.  The stage span measures host
    wall time *exclusively*, so slicing/reassembly around ECALLs is charged
    here without double-counting the in-enclave compute.
    """
    with env.stage(node.stage) as span:
        span.attrs["node_signature"] = _signature_text(node.signature())
        span.attrs["node_op"] = node.op
        span.attrs["node_level"] = node.level
        span.attrs["node_headroom_bits"] = float(node.budget_bits)
        yield span


def _enclave_args(node: ir.GraphNode) -> tuple:
    attrs = node.attrs
    return (
        attrs["input_scale"],
        attrs["output_scale"],
        attrs["window"],
        attrs["activation"],
        attrs["pool"],
    )


# ----------------------------------------------------------------------
# op handlers: (env, node, value, walk) -> value
# ----------------------------------------------------------------------
def _encrypt(env, node, images, walk):
    with _node_stage(env, node):
        return env.encryptor.encrypt(env.encoder.encode(env.quantize(images)))


def _encrypt_image(env, node, images, walk):
    """The served request format, as ``UserSession.encrypt`` writes it."""
    shape = node.attrs["shape"]
    if np.ndim(images) != 4 or tuple(images.shape[1:]) != shape:
        raise PipelineError(
            f"the graph takes (B, C, H, W) = (B, {', '.join(map(str, shape))}) "
            f"images, got shape {np.shape(images)}"
        )
    with _node_stage(env, node):
        pixels = write_image(env.evaluator.context, env.quantize(images))
        return env.encryptor.encrypt(pixels)


def _conv(env, node, value, walk):
    with _node_stage(env, node):
        return heops.he_conv2d(
            env.evaluator, env.encoder, value, env.weights[node.stage], walk.folded
        )


def _fc(env, node, value, walk):
    with _node_stage(env, node):
        return heops.he_dense(env.evaluator, env.encoder, value, env.weights[node.stage])


def _crossing(env, node, conv, walk):
    with _node_stage(env, node):
        return env.enclave.ecall("activation_pool", conv, *_enclave_args(node))


def _crossing_image(env, node, conv, walk):
    with _node_stage(env, node):
        # One image per conv-output ciphertext, or a fold's batch P per
        # ciphertext.  The last crossing runs fc too, and each image's
        # logits come back as its own result ciphertext; any other writes
        # its pooled maps as the next block's images, folded as that
        # block's conv reads them.
        folded = walk.folded if walk.folded > 1 else None
        fc = None if node.attrs.get("next_image") else env.weights["fc"]
        return env.enclave.ecall(
            "activation_pool", conv, *_enclave_args(node),
            image=node.attrs["image"], batch=folded, fc=fc,
        )


def _crossing_per_pixel(env, node, conv, walk):
    """EncryptSGX (single): every feature value crosses the boundary alone."""
    scale, out_scale, window = _enclave_args(node)[:3]
    with _node_stage(env, node):
        b, c, h, w = conv.batch_shape
        pieces = np.empty((b, c, h, w), dtype=object)
        for bi in range(b):
            for ci in range(c):
                for i in range(h):
                    for j in range(w):
                        one = conv[bi : bi + 1, ci : ci + 1, i : i + 1, j : j + 1]
                        pieces[bi, ci, i, j] = env.enclave.ecall(
                            "sigmoid", one, scale, out_scale
                        )
        stacked = np.stack(
            [
                [
                    [[pieces[bi, ci, i, j].data[0, 0, 0, 0] for j in range(w)] for i in range(h)]
                    for ci in range(c)
                ]
                for bi in range(b)
            ]
        )
        activated = Ciphertext(conv.context, stacked, is_ntt=True)
        return env.enclave.ecall("mean_pool", activated, window)


def _square(env, node, value, walk):
    with _node_stage(env, node):
        return heops.he_square(env.evaluator, value)


def _relinearize(env, node, value, walk):
    with _node_stage(env, node):
        return env.evaluator.relinearize(value, env.relin_keys)


def _pool(env, node, value, walk):
    with _node_stage(env, node):
        return heops.he_scaled_mean_pool(env.evaluator, value, node.attrs["window"])


def _fold(env, node, requests, walk):
    with _node_stage(env, node):
        # Host side, no ECALL: fold the B image-encoded requests (one
        # ciphertext, or the flush's request ciphertexts un-stacked) into
        # ceil(B / P) ciphertexts, image b in block b % P of row b // P.
        walk.folded = walk.batch
        return pack_coefficients(env.evaluator, requests, stride=node.attrs["stride"])


def _decrypt_with(decode):
    def handler(env, node, value, walk):
        # The budget probe is the caller's diagnostic, not part of the
        # user's decrypt: it runs outside the stage's measured window.
        walk.budget = env.decryptor.invariant_noise_budget(value)
        with _node_stage(env, node) as span:
            span.attrs["noise_budget_bits"] = float(walk.budget)
            walk.logits = decode(env, node, value)
        return value

    return handler


#: The registered-op table: opcode -> handler.  A graph naming any other
#: opcode is rejected by :func:`run`.
OPS: dict[str, Callable] = {
    "encrypt": _encrypt,
    "encrypt_image": _encrypt_image,
    "conv": _conv,
    "crossing": _crossing,
    "crossing_image": _crossing_image,
    "crossing_per_pixel": _crossing_per_pixel,
    "square": _square,
    "relinearize": _relinearize,
    "pool": _pool,
    "fc": _fc,
    "fold": _fold,
    "decrypt": _decrypt_with(lambda env, node, ct: env.decryptor.decrypt_constants(ct)),
    # One result per image, class c in coefficient c: the user's read of a
    # served result (``UserSession.decrypt_logits``).
    "decrypt_result": _decrypt_with(
        lambda env, node, ct: read_lanes(
            env.decryptor.decrypt(ct.reshape(1, -1)), node.attrs["classes"]
        ).T
    ),
}


def leading_batch(ciphertext: Ciphertext | Sequence[Ciphertext]) -> int:
    """Images riding one walk: the leading axis of a ciphertext, or of a
    packed flush's un-stacked request ciphertexts together."""
    parts = [ciphertext] if isinstance(ciphertext, Ciphertext) else ciphertext
    return sum(int(part.batch_shape[0]) for part in parts)


def run(
    graph: ir.InferenceGraph,
    env: Resources,
    *,
    images: np.ndarray | None = None,
    ciphertext: Ciphertext | Sequence[Ciphertext] | None = None,
):
    """Walk ``graph`` over ``env`` from raw ``images`` or from an already
    encrypted ``ciphertext`` (exactly one; a ``packed`` graph also takes the
    flush's request ciphertexts as a sequence, which its ``fold`` node folds
    un-stacked); returns ``(logits, budget, result_ct)`` with ``logits`` /
    ``budget`` None unless the graph ends in a decrypt node."""
    if (images is None) == (ciphertext is None):
        raise PipelineError("graph executor takes exactly one of images / ciphertext")
    if images is not None:
        value, batch = images, images.shape[0]
    else:
        value, batch = ciphertext, leading_batch(ciphertext)
    walk = _Walk(batch=int(batch))
    for node in graph.nodes:
        handler = OPS.get(node.op)
        if handler is None:
            raise PipelineError(f"graph executor has no handler for op {node.op!r}")
        value = handler(env, node, value, walk)
    return walk.logits, walk.budget, value
