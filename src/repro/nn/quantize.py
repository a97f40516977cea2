"""Fixed-point quantization bridging the float CNN and the HE pipelines.

FV works over integers mod ``t``, so the trained float model is quantized
CryptoNets-style: pixels and weights become scaled integers, and every
pipeline stage tracks the accumulated scale.  The quantized model is a list
of conv blocks plus fc; each block exposes *stage functions* (conv / enclave
activation+pool / square / scaled-pool) and the model fc's, which the
plaintext reference and every encrypted pipeline share -- that is what lets
the tests assert bit-exact agreement between the plaintext integer
reference and the homomorphic execution.

Scale bookkeeping for the paper's CNN (Table VI), one block:

* hybrid (sigmoid + mean-pool in the enclave)::

    pixels  x_int = x * input_scale
    conv    y_int = W1_int * x_int + b1_int        scale: input_scale * s1
    enclave y = sigmoid(y_int / (input_scale*s1)); pool; a_int = round(y * act_scale)
    fc      logits_int = W2_int * a_int + b2_int   scale: act_scale * s2

  A deeper hybrid repeats the conv -> enclave pair per block; block ``i > 0``
  reads the previous block's output at ``act_scale``.

* CryptoNets baseline (square + scaled mean-pool, no enclave)::

    conv    y_int                                  scale: input_scale * s1
    square  y_int^2                                scale: (input_scale*s1)^2
    pool    window sum (magnified by window^2)
    fc      logits_int                             argmax-invariant scaling

``required_plain_modulus`` bounds the worst-case intermediate so parameter
sets can be validated before spending minutes on an encrypted run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Conv2D, Dense, Sigmoid, Tanh, conv2d_forward
from repro.nn.model import ACTIVATION_LAYERS, POOL_LAYERS, Sequential


def _quantize_array(values: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Symmetric linear quantization to ``bits``-bit signed integers."""
    limit = (1 << (bits - 1)) - 1
    peak = float(np.abs(values).max())
    if peak == 0.0:
        return np.zeros(values.shape, dtype=np.int64), 1.0
    scale = limit / peak
    return np.rint(values * scale).astype(np.int64), scale


def _enclave_stage(
    conv_int: np.ndarray,
    conv_scale: float,
    activation: str,
    pool: str,
    window: int,
    act_scale: int,
) -> np.ndarray:
    """Plaintext reference of one enclave crossing: dequantize at
    ``conv_scale``, exact ``tanh``/``sigmoid``, ``max``/``mean`` pool over
    ``window``, requantize to ``act_scale`` levels."""
    x = conv_int.astype(np.float64) / conv_scale
    activated = Tanh.apply(x) if activation == "tanh" else Sigmoid.apply(x)
    b, c, h, w = activated.shape
    windows = activated.reshape(b, c, h // window, window, w // window, window)
    pooled = windows.max(axis=(3, 5)) if pool == "max" else windows.mean(axis=(3, 5))
    return np.rint(pooled * act_scale).astype(np.int64)


@dataclass
class QuantizedConvBlock:
    """One integer conv -> activation -> pool block: the unit a
    :class:`QuantizedCNN` is a list of, and the image chain
    (``repro.graph.ir.build_simd_graph``) walks.

    Attributes:
        weight / bias: integer conv parameters (bias at conv-output scale).
        weight_scale: quantization scale of the weights.
        stride: conv stride.
        activation: "sigmoid" or "tanh" (enclave-exact, bounded), or
            "square" (CryptoNets, the only HE-computable choice).
        pool: "mean" or "max" (both enclave-only) or "scaled_mean" (pure HE,
            with the square).
        pool_window: pooling window side.
        act_scale: requantization levels of the block output.
    """

    weight: np.ndarray
    bias: np.ndarray
    weight_scale: float
    stride: int
    activation: str
    pool: str
    pool_window: int
    act_scale: int

    def __post_init__(self) -> None:
        if self.activation not in ("sigmoid", "tanh", "square"):
            raise ModelError(f"unsupported activation {self.activation!r}")
        if self.pool not in ("mean", "max", "scaled_mean"):
            raise ModelError(f"unsupported pool {self.pool!r}")
        if self.activation == "square" and self.pool != "scaled_mean":
            raise ModelError(
                "square activation implies the HE-only pipeline, which can "
                "neither divide nor compare: use pool='scaled_mean'"
            )
        if self.activation != "square" and self.pool == "scaled_mean":
            raise ModelError(
                "scaled_mean pooling is the HE substitute; the enclave "
                "pipelines use the true 'mean' or 'max' pool"
            )

    # ------------------------------------------------------------------
    # stage functions (shared verbatim by plaintext and HE pipelines)
    # ------------------------------------------------------------------
    def conv_stage(self, x_int: np.ndarray) -> np.ndarray:
        """Integer convolution: the homomorphic pipelines replicate this."""
        out = conv2d_forward(x_int, self.weight, None, self.stride)
        return out + self.bias.reshape(1, -1, 1, 1)

    def enclave_stage(self, conv_int: np.ndarray, input_scale: float) -> np.ndarray:
        """Exact activation + pool + requantize -- the trusted in-enclave step.

        This is exactly the plaintext computation the paper moves inside SGX
        (Section IV-D): dequantize at ``input_scale`` times the weight scale,
        apply the true non-linearity and the true pooling (mean or max),
        requantize for the next homomorphic layer.
        """
        if self.activation == "square":
            raise ModelError("enclave_stage belongs to the exact-activation pipelines")
        return _enclave_stage(
            conv_int, input_scale * self.weight_scale, self.activation, self.pool,
            self.pool_window, self.act_scale,
        )

    def square_stage(self, conv_int: np.ndarray) -> np.ndarray:
        """CryptoNets activation: elementwise integer square."""
        return conv_int * conv_int

    def scaled_pool_stage(self, x_int: np.ndarray) -> np.ndarray:
        """CryptoNets pooling: division-free window sum."""
        k = self.pool_window
        b, c, h, w = x_int.shape
        return x_int.reshape(b, c, h // k, k, w // k, k).sum(axis=(3, 5))

    def activation_pool_stage(self, conv_int: np.ndarray, input_scale: float) -> np.ndarray:
        """The block's activation and pool: the square and window sum of the
        pure-HE chain, else :meth:`enclave_stage`."""
        if self.activation == "square":
            return self.scaled_pool_stage(self.square_stage(conv_int))
        return self.enclave_stage(conv_int, input_scale)

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def taps(self) -> int:
        """Fan-in of one conv output: ``C * k * k``."""
        return self.weight.shape[1] * self.weight.shape[-1] ** 2

    def conv_bound(self, input_bound: int) -> int:
        """Largest ``|value|`` a conv output (or any partial tap sum of one)
        takes on inputs bounded by ``input_bound``."""
        return int(
            self.taps() * input_bound * int(np.abs(self.weight).max())
            + int(np.abs(self.bias).max())
        )

    def output_bound(self, input_bound: int) -> int:
        """Largest ``|value|`` the block outputs: the magnified window sum of
        squares, or the requantization levels."""
        if self.activation == "square":
            return self.conv_bound(input_bound) ** 2 * self.pool_window**2
        return self.act_scale


@dataclass
class QuantizedCNN:
    """Integer twin of a ``(conv -> activation -> pool)*k -> dense`` CNN; the
    paper's 4-layer CNN (Table VI) is one block.

    Attributes:
        blocks: the quantized conv blocks, in order.  A "square" block (the
            pure-HE chain) is legal only as a model's one block: a deeper
            model refreshes in the enclave between blocks, and the pure-HE
            chain has no enclave.
        dense_weight / dense_bias: integer FC parameters, bias at logit scale.
        dense_weight_scale: FC quantization scale.
        input_scale: pixel scaling (x_int = round(x_float * input_scale)).
    """

    blocks: list[QuantizedConvBlock]
    dense_weight: np.ndarray
    dense_bias: np.ndarray
    dense_weight_scale: float
    input_scale: int

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ModelError("a quantized model needs at least one conv block")
        if len(self.blocks) > 1 and any(b.activation == "square" for b in self.blocks):
            raise ModelError(
                "a square block is the pure-HE chain's one block; a deeper model "
                "refreshes in the enclave and takes sigmoid or tanh blocks"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_float(
        cls,
        model: Sequential,
        weight_bits: int = 8,
        input_scale: int = 255,
        act_scale: int = 255,
    ) -> "QuantizedCNN":
        """Quantize a trained ``(Conv2D, activation, pool)*k -> Dense``
        Sequential.

        The activation/pool configuration is read off each block's layers, so
        a CryptoNets-style model (Square + ScaledMeanPool2D) quantizes into
        the pure-HE variant automatically.  Block ``i``'s bias is scaled to
        its conv output: ``input_scale`` for block 0, ``act_scale`` after.
        """
        layers = list(model.layers)
        body, dense = layers[:-1], layers[-1]
        if not isinstance(dense, Dense) or not body or len(body) % 3:
            raise ModelError(
                "QuantizedCNN expects (conv -> activation -> pool) blocks and one "
                "dense layer (see repro.nn.model.paper_cnn and deep_cnn)"
            )
        blocks = []
        in_scale = input_scale
        for i in range(0, len(body), 3):
            conv, act, pool = body[i : i + 3]
            activation = _kind(act, ACTIVATION_LAYERS)
            pool_kind = _kind(pool, POOL_LAYERS)
            if not isinstance(conv, Conv2D) or activation is None or pool_kind is None:
                raise ModelError(
                    f"layers {i}..{i + 2} must be Conv2D, Sigmoid/Tanh/Square and a "
                    f"pool, got {[type(layer).__name__ for layer in (conv, act, pool)]}"
                )
            weight, scale = _quantize_array(conv.weight, weight_bits)
            blocks.append(
                QuantizedConvBlock(
                    weight=weight,
                    bias=np.rint(conv.bias * scale * in_scale).astype(np.int64),
                    weight_scale=scale,
                    stride=conv.stride,
                    activation=activation,
                    pool=pool_kind,
                    pool_window=pool.window,
                    act_scale=act_scale,
                )
            )
            in_scale = act_scale
        dense_w, s2 = _quantize_array(dense.weight, weight_bits)
        first = blocks[0]
        if first.activation == "square":
            # Square pipeline: dense inputs carry scale (input_scale*s1)^2 * window^2.
            carried = (input_scale * first.weight_scale) ** 2 * first.pool_window**2
        else:
            carried = act_scale
        return cls(
            blocks=blocks,
            dense_weight=dense_w,
            dense_bias=np.rint(dense.bias * s2 * carried).astype(np.int64),
            dense_weight_scale=s2,
            input_scale=input_scale,
        )

    # ------------------------------------------------------------------
    # stage functions (shared verbatim by plaintext and HE pipelines)
    # ------------------------------------------------------------------
    def quantize_images(self, images: np.ndarray) -> np.ndarray:
        """uint8 or [0,1]-float images -> integer pixels at input_scale."""
        if images.dtype == np.uint8:
            scaled = images.astype(np.float64) / 255.0
        else:
            scaled = np.asarray(images, dtype=np.float64)
        return np.rint(scaled * self.input_scale).astype(np.int64)

    def block_input_scale(self, index: int) -> int:
        """Scale (and bound) of block ``index``'s integer input."""
        return self.input_scale if index == 0 else self.blocks[index - 1].act_scale

    def fc_stage(self, x_int: np.ndarray) -> np.ndarray:
        """Integer fully-connected layer producing scaled logits."""
        flat = x_int.reshape(x_int.shape[0], -1)
        return flat @ self.dense_weight + self.dense_bias

    # ------------------------------------------------------------------
    # end-to-end integer reference
    # ------------------------------------------------------------------
    def forward_int(self, images: np.ndarray) -> np.ndarray:
        """Exact integer logits -- the reference every HE pipeline must match."""
        x = self.quantize_images(images)
        for i, block in enumerate(self.blocks):
            x = block.activation_pool_stage(block.conv_stage(x), self.block_input_scale(i))
        return self.fc_stage(x)

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.forward_int(images).argmax(axis=1)

    # ------------------------------------------------------------------
    # parameter-fit validation
    # ------------------------------------------------------------------
    @property
    def input_shape(self) -> tuple[int, int, int]:
        """``(C, H, W)`` of the square images the model consumes: the side
        whose conv -> pool chain through :attr:`blocks` yields the fc
        layer's fan-in."""
        blocks, fan_in = self.blocks, self.dense_weight.shape[0]
        filters = blocks[-1].weight.shape[0]
        side = math.isqrt(fan_in // filters)
        if filters * side * side != fan_in:
            raise ModelError(f"fc fan-in {fan_in} is not {filters} square pooled feature maps")
        for block in reversed(blocks):
            side = (side * block.pool_window - 1) * block.stride + block.weight.shape[-1]
        return blocks[0].weight.shape[1], side, side

    def required_plain_modulus(self) -> int:
        """Worst-case bound on any intermediate: ``t`` must exceed 2x this.

        The max over every block's conv output and block output and the fc
        logits: the enclave refresh requantizes between blocks, so the bound
        does not grow with depth."""
        worst = 0
        for i, block in enumerate(self.blocks):
            scale = self.block_input_scale(i)
            worst = max(worst, block.conv_bound(scale), block.output_bound(scale))
        hidden = self.blocks[-1].output_bound(self.block_input_scale(len(self.blocks) - 1))
        fc_bound = (
            self.dense_weight.shape[0] * hidden * int(np.abs(self.dense_weight).max())
            + int(np.abs(self.dense_bias).max())
        )
        return 2 * max(worst, fc_bound) + 1

    def fits_plain_modulus(self, plain_modulus: int) -> bool:
        return plain_modulus >= self.required_plain_modulus()

    def noise_profile(self) -> tuple[bool, float, int]:
        """``(pure_he, plain_norm, additions)`` for parameter sizing.

        The additions term follows the per-layer convention of the graph
        IR (``repro.graph.ir.node_noise_cost``): the hybrid's enclave refresh
        resets noise between every block and before fc, so only the widest
        single layer counts, while the pure-HE pipeline carries its one
        conv's fan-in through the window sum into every FC term within one
        encrypted circuit.  The norm covers every weight layer, fc's
        included (its weights are plaintext multiplicands too).
        """
        pure_he = self.blocks[0].activation == "square"
        fc_terms = self.dense_weight.shape[0]
        norm = float(
            max(1, *(np.abs(b.weight).max() for b in self.blocks), np.abs(self.dense_weight).max())
        )
        if pure_he:
            additions = self.blocks[0].taps() * self.blocks[0].pool_window**2 * fc_terms
        else:
            additions = max(*(b.taps() for b in self.blocks), fc_terms)
        return (pure_he, norm, additions)


def _kind(layer, table: dict[str, type]) -> str | None:
    """The name ``layer``'s class has in ``table``, or None."""
    return next((name for name, cls in table.items() if isinstance(layer, cls)), None)
