"""Deep (multi-block) quantized CNNs for the hybrid framework.

The paper evaluates a single conv block (Section VIII: "it is challenging
to build different and huge network architecture[s]") and the whole point
of the hybrid design is that it *removes* the depth barrier: every enclave
activation re-encrypts fresh ciphertexts, so the homomorphic noise
requirement is one linear layer deep no matter how many blocks the network
stacks.  This module generalizes :class:`repro.nn.quantize.QuantizedCNN` to
arbitrarily many ``conv -> activation -> pool`` blocks
(:class:`~repro.nn.quantize.QuantizedConvBlock`, the unit a
:class:`~repro.nn.quantize.QuantizedCNN` is one of), letting
:class:`repro.core.deep.DeepHybridPipeline` demonstrate exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Conv2D, Dense, MaxPool2D, MeanPool2D, Sigmoid, Tanh
from repro.nn.model import Sequential
from repro.nn.quantize import QuantizedCNN, QuantizedConvBlock, _quantize_array


@dataclass
class DeepQuantizedCNN:
    """Integer twin of a ``[conv -> act -> pool]*k -> dense`` network.

    Attributes:
        blocks: the quantized conv blocks, in order.
        dense_weight / dense_bias: integer FC parameters (bias at logit scale).
        dense_weight_scale: FC quantization scale.
        input_scale: pixel scaling of the first block's input.
    """

    blocks: list[QuantizedConvBlock]
    dense_weight: np.ndarray
    dense_bias: np.ndarray
    dense_weight_scale: float
    input_scale: int

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @classmethod
    def from_float(
        cls,
        model: Sequential,
        weight_bits: int = 6,
        input_scale: int = 255,
        act_scale: int = 63,
    ) -> "DeepQuantizedCNN":
        """Quantize a trained multi-block Sequential.

        The model must be ``(Conv2D, Sigmoid|Tanh, MeanPool2D|MaxPool2D)``
        repeated one or more times, followed by a single ``Dense``.
        """
        layers = list(model.layers)
        if not layers or not isinstance(layers[-1], Dense):
            raise ModelError("deep model must end with a Dense layer")
        dense = layers[-1]
        body = layers[:-1]
        if len(body) % 3 or not body:
            raise ModelError(
                "deep model body must be (Conv2D, activation, pool) blocks"
            )
        blocks = []
        for i in range(0, len(body), 3):
            conv, act, pool = body[i : i + 3]
            if not isinstance(conv, Conv2D):
                raise ModelError(f"layer {i} must be Conv2D, got {type(conv).__name__}")
            if not isinstance(act, (Sigmoid, Tanh)):
                raise ModelError(
                    f"layer {i + 1} must be a bounded exact activation "
                    f"(Sigmoid/Tanh), got {type(act).__name__}"
                )
            if not isinstance(pool, (MeanPool2D, MaxPool2D)):
                raise ModelError(
                    f"layer {i + 2} must be MeanPool2D or MaxPool2D, got "
                    f"{type(pool).__name__}"
                )
            w_int, w_scale = _quantize_array(conv.weight, weight_bits)
            in_scale = input_scale if i == 0 else act_scale
            blocks.append(
                QuantizedConvBlock(
                    weight=w_int,
                    bias=np.rint(conv.bias * w_scale * in_scale).astype(np.int64),
                    weight_scale=w_scale,
                    stride=conv.stride,
                    activation="tanh" if isinstance(act, Tanh) else "sigmoid",
                    pool="max" if isinstance(pool, MaxPool2D) else "mean",
                    pool_window=pool.window,
                    act_scale=act_scale,
                )
            )
        d_int, d_scale = _quantize_array(dense.weight, weight_bits)
        dense_bias = np.rint(dense.bias * d_scale * act_scale).astype(np.int64)
        return cls(
            blocks=blocks,
            dense_weight=d_int,
            dense_bias=dense_bias,
            dense_weight_scale=d_scale,
            input_scale=input_scale,
        )

    # ------------------------------------------------------------------
    # As the single-block model computes them, from the same attributes: the
    # image side whose chain of blocks yields fc's fan-in, the pixel
    # quantization, fc, and the plaintext-modulus fit.
    input_shape = QuantizedCNN.input_shape
    quantize_images = QuantizedCNN.quantize_images
    fc_stage = QuantizedCNN.fc_stage
    predict = QuantizedCNN.predict
    fits_plain_modulus = QuantizedCNN.fits_plain_modulus

    def block_input_scale(self, index: int) -> int:
        return self.input_scale if index == 0 else self.blocks[index - 1].act_scale

    def forward_int(self, images: np.ndarray) -> np.ndarray:
        """Exact integer logits -- the deep hybrid pipeline must match this."""
        x = self.quantize_images(images)
        for i, block in enumerate(self.blocks):
            conv = block.conv_stage(x)
            x = block.enclave_stage(conv, self.block_input_scale(i))
        return self.fc_stage(x)

    def required_plain_modulus(self) -> int:
        """Depth-*independent* bound: the max over per-block conv outputs and
        the FC logits -- the hybrid's noise story never stacks blocks."""
        worst = 0
        for i, block in enumerate(self.blocks):
            worst = max(worst, block.conv_bound(self.block_input_scale(i)))
        fc_bound = (
            self.dense_weight.shape[0]
            * self.blocks[-1].act_scale
            * int(np.abs(self.dense_weight).max())
            + int(np.abs(self.dense_bias).max())
        )
        return 2 * max(worst, fc_bound) + 1

    def noise_profile(self) -> tuple[bool, float, int]:
        """``(pure_he, plain_norm, additions)`` for parameter sizing.

        Never pure-HE (the deep pipeline exists because of the refresh), and
        the noise-relevant linear layer is the widest single block/FC.
        """
        norm = max(float(np.abs(b.weight).max()) for b in self.blocks)
        widest = max(
            max(b.weight.shape[1] * b.weight.shape[-1] ** 2 for b in self.blocks),
            self.dense_weight.shape[0],
        )
        return (False, max(1.0, norm), widest)


def deep_cnn(
    image_size: int,
    block_channels: tuple[int, ...] = (4, 8),
    kernel_size: int = 3,
    pool_window: int = 2,
    activation: str = "sigmoid",
    pool: str = "mean",
    rng: np.random.Generator | None = None,
) -> Sequential:
    """A multi-block CNN factory: ``[conv -> act -> pool]*k -> dense``.

    Raises:
        ModelError: if the spatial dimensions do not survive every block.
    """
    rng = rng if rng is not None else np.random.default_rng()
    activations = {"sigmoid": Sigmoid, "tanh": Tanh}
    pools = {"mean": MeanPool2D, "max": MaxPool2D}
    if activation not in activations or pool not in pools:
        raise ModelError(f"unsupported activation/pool: {activation}/{pool}")
    layers = []
    channels = 1
    size = image_size
    for out_channels in block_channels:
        conv_out = size - kernel_size + 1
        if conv_out < pool_window or conv_out % pool_window:
            raise ModelError(
                f"spatial size collapses at {size} -> {conv_out} with pool "
                f"{pool_window}; adjust image_size/kernel/blocks"
            )
        layers.append(Conv2D(channels, out_channels, kernel_size, rng=rng))
        layers.append(activations[activation]())
        layers.append(pools[pool](pool_window))
        channels = out_channels
        size = conv_out // pool_window
    layers.append(Dense(channels * size * size, 10, rng=rng))
    return Sequential(layers, input_shape=(1, image_size, image_size))
