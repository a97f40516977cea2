"""Fixed-point quantization bridging the float CNN and the HE pipelines.

FV works over integers mod ``t``, so the trained float model is quantized
CryptoNets-style: pixels and weights become scaled integers, and every
pipeline stage tracks the accumulated scale.  The quantized model exposes
*stage functions* (conv / enclave activation+pool / square / scaled-pool /
fully-connected) that the plaintext reference and both encrypted pipelines
share, which is what lets the tests assert bit-exact agreement between the
plaintext integer reference and the homomorphic execution.

Scale bookkeeping for the paper's CNN (Table VI):

* hybrid (sigmoid + mean-pool in the enclave)::

    pixels  x_int = x * input_scale
    conv    y_int = W1_int * x_int + b1_int        scale: input_scale * s1
    enclave y = sigmoid(y_int / (input_scale*s1)); pool; a_int = round(y * act_scale)
    fc      logits_int = W2_int * a_int + b2_int   scale: act_scale * s2

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
from repro.nn.layers import (
    Conv2D,
    Dense,
    MaxPool2D,
    MeanPool2D,
    ScaledMeanPool2D,
    Sigmoid,
    Square,
    Tanh,
    conv2d_forward,
)
from repro.nn.model import Sequential


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
    """One integer conv -> exact activation -> pool block: the unit the
    image chain (``repro.graph.ir.build_simd_graph``) walks, one per block
    of a :class:`repro.nn.deep.DeepQuantizedCNN` and the one of a
    :class:`QuantizedCNN` (:attr:`QuantizedCNN.blocks`).

    Attributes:
        weight / bias: integer conv parameters (bias at conv-output scale).
        weight_scale: quantization scale of the weights.
        stride: conv stride.
        activation: "sigmoid" or "tanh" (enclave-exact, bounded); a
            CryptoNets model's one block says "square".
        pool: "mean" or "max" ("scaled_mean" for the square).
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

    def conv_stage(self, x_int: np.ndarray) -> np.ndarray:
        out = conv2d_forward(x_int, self.weight, None, self.stride)
        return out + self.bias.reshape(1, -1, 1, 1)

    def enclave_stage(self, conv_int: np.ndarray, input_scale: float) -> np.ndarray:
        """Exact activation + pool + requantize (trusted side of the block)."""
        return _enclave_stage(
            conv_int, input_scale * self.weight_scale, self.activation, self.pool,
            self.pool_window, self.act_scale,
        )

    def conv_bound(self, input_bound: int) -> int:
        """Largest ``|value|`` a conv output (or any partial tap sum of one)
        takes on inputs bounded by ``input_bound``."""
        taps = self.weight.shape[1] * self.weight.shape[-1] ** 2
        return int(
            taps * input_bound * int(np.abs(self.weight).max()) + int(np.abs(self.bias).max())
        )


@dataclass
class QuantizedCNN:
    """Integer twin of the paper's 4-layer CNN.

    Attributes:
        conv_weight / conv_bias: integer conv parameters; the bias is
            pre-scaled to the conv output scale.
        dense_weight / dense_bias: integer FC parameters, bias at logit scale.
        input_scale: pixel scaling (x_int = round(x_float * input_scale)).
        conv_weight_scale / dense_weight_scale: weight quantization scales.
        act_scale: requantization levels for the enclave's activation output.
        activation: "sigmoid" / "tanh" (hybrid / plaintext -- any bounded
            activation the enclave evaluates exactly) or "square"
            (CryptoNets, the only HE-computable choice).
        pool: "mean", "max" (both enclave-only) or "scaled_mean" (pure HE).
        pool_window: pooling window side.
        stride: conv stride.
    """

    conv_weight: np.ndarray
    conv_bias: np.ndarray
    dense_weight: np.ndarray
    dense_bias: np.ndarray
    input_scale: int
    conv_weight_scale: float
    dense_weight_scale: float
    act_scale: int
    activation: str
    pool: str
    pool_window: int
    stride: int = 1

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
        """Quantize a trained conv->activation->pool->dense Sequential.

        The activation/pool configuration is read off the model's layers, so
        a CryptoNets-style model (Square + ScaledMeanPool2D) quantizes into
        the pure-HE variant automatically.
        """
        conv, act, pool, dense = _destructure(model)
        conv_w, s1 = _quantize_array(conv.weight, weight_bits)
        dense_w, s2 = _quantize_array(dense.weight, weight_bits)
        if isinstance(act, Square):
            activation = "square"
        elif isinstance(act, Tanh):
            activation = "tanh"
        else:
            activation = "sigmoid"
        if isinstance(pool, ScaledMeanPool2D):
            pool_kind = "scaled_mean"
        elif isinstance(pool, MaxPool2D):
            pool_kind = "max"
        else:
            pool_kind = "mean"
        conv_bias = np.rint(conv.bias * s1 * input_scale).astype(np.int64)
        if activation == "square":
            # Square pipeline: dense inputs carry scale (input_scale*s1)^2 * window^2.
            carried = (input_scale * s1) ** 2 * pool.window**2
            dense_bias = np.rint(dense.bias * s2 * carried).astype(np.int64)
        else:
            dense_bias = np.rint(dense.bias * s2 * act_scale).astype(np.int64)
        return cls(
            conv_weight=conv_w,
            conv_bias=conv_bias,
            dense_weight=dense_w,
            dense_bias=dense_bias,
            input_scale=input_scale,
            conv_weight_scale=s1,
            dense_weight_scale=s2,
            act_scale=act_scale,
            activation=activation,
            pool=pool_kind,
            pool_window=pool.window,
            stride=conv.stride,
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

    @property
    def blocks(self) -> list[QuantizedConvBlock]:
        """The model as the one-block list the image chain walks."""
        return [
            QuantizedConvBlock(
                self.conv_weight, self.conv_bias, self.conv_weight_scale, self.stride,
                self.activation, self.pool, self.pool_window, self.act_scale,
            )
        ]

    def block_input_scale(self, index: int) -> int:
        return self.input_scale

    def conv_stage(self, x_int: np.ndarray) -> np.ndarray:
        """Integer convolution: the homomorphic pipelines replicate this."""
        return self.blocks[0].conv_stage(x_int)

    @property
    def conv_output_scale(self) -> float:
        return self.input_scale * self.conv_weight_scale

    def enclave_stage(self, conv_int: np.ndarray) -> np.ndarray:
        """Exact activation + pool + requantize -- the trusted in-enclave step.

        This is exactly the plaintext computation the paper moves inside SGX
        (Section IV-D): dequantize, apply the true non-linearity and the true
        pooling (mean or max), requantize for the next homomorphic layer.
        """
        if self.activation == "square":
            raise ModelError("enclave_stage belongs to the exact-activation pipelines")
        return self.blocks[0].enclave_stage(conv_int, self.input_scale)

    def square_stage(self, conv_int: np.ndarray) -> np.ndarray:
        """CryptoNets activation: elementwise integer square."""
        return conv_int * conv_int

    def scaled_pool_stage(self, x_int: np.ndarray) -> np.ndarray:
        """CryptoNets pooling: division-free window sum."""
        k = self.pool_window
        b, c, h, w = x_int.shape
        return x_int.reshape(b, c, h // k, k, w // k, k).sum(axis=(3, 5))

    def fc_stage(self, x_int: np.ndarray) -> np.ndarray:
        """Integer fully-connected layer producing scaled logits."""
        flat = x_int.reshape(x_int.shape[0], -1)
        return flat @ self.dense_weight + self.dense_bias

    # ------------------------------------------------------------------
    # end-to-end integer reference
    # ------------------------------------------------------------------
    def forward_int(self, images: np.ndarray) -> np.ndarray:
        """Exact integer logits -- the reference both HE pipelines must match."""
        x = self.quantize_images(images)
        conv = self.conv_stage(x)
        if self.activation == "square":
            hidden = self.scaled_pool_stage(self.square_stage(conv))
        else:
            hidden = self.enclave_stage(conv)
        return self.fc_stage(hidden)

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

    @property
    def conv_bound(self) -> int:
        """Largest ``|value|`` a conv output (or any partial tap sum of one)
        takes on images in ``[0, 1]``."""
        return self.blocks[0].conv_bound(self.input_scale)

    @property
    def hidden_bound(self) -> int:
        """Largest ``|value|`` the fc layer's input takes."""
        if self.activation == "square":
            return self.conv_bound * self.conv_bound * self.pool_window**2
        return self.act_scale

    @property
    def fc_bound(self) -> int:
        """Largest ``|logit|`` the fc layer outputs."""
        fc_terms = self.dense_weight.shape[0]
        return (
            fc_terms * self.hidden_bound * int(np.abs(self.dense_weight).max())
            + int(np.abs(self.dense_bias).max())
        )

    def required_plain_modulus(self) -> int:
        """Worst-case bound on any intermediate: ``t`` must exceed 2x this."""
        return 2 * max(self.conv_bound, self.hidden_bound, self.fc_bound) + 1

    def fits_plain_modulus(self, plain_modulus: int) -> bool:
        return plain_modulus >= self.required_plain_modulus()

    def noise_profile(self) -> tuple[bool, float, int]:
        """``(pure_he, plain_norm, additions)`` for parameter sizing.

        The additions term follows the per-layer convention of the graph
        IR (``repro.graph.ir.node_noise_cost``): the hybrid pipeline's enclave
        refresh resets noise between the conv and FC layers, so only the
        widest single layer counts, while the pure-HE pipeline carries the
        conv fan-in through the window sum into every FC term within one
        encrypted circuit.  The norm covers both weight layers (the FC
        weights are plaintext multiplicands too).
        """
        k = self.conv_weight.shape[-1]
        taps = k * k * self.conv_weight.shape[1]
        fc_terms = self.dense_weight.shape[0]
        norm = float(
            max(1, np.abs(self.conv_weight).max(), np.abs(self.dense_weight).max())
        )
        if self.activation == "square":
            additions = taps * self.pool_window**2 * fc_terms
        else:
            additions = max(taps, fc_terms)
        return (self.activation == "square", norm, additions)


def _destructure(model: Sequential) -> tuple[Conv2D, object, object, Dense]:
    layers = model.layers
    if (
        len(layers) != 4
        or not isinstance(layers[0], Conv2D)
        or not isinstance(layers[1], (Sigmoid, Tanh, Square))
        or not isinstance(layers[2], (MeanPool2D, MaxPool2D, ScaledMeanPool2D))
        or not isinstance(layers[3], Dense)
    ):
        raise ModelError(
            "QuantizedCNN expects the paper's conv -> activation -> pool -> dense "
            "architecture (see repro.nn.model.paper_cnn)"
        )
    return layers[0], layers[1], layers[2], layers[3]
