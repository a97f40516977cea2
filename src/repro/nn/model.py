"""Sequential CNN container and the paper's Table VI architecture."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import (
    Conv2D,
    Dense,
    Layer,
    MaxPool2D,
    MeanPool2D,
    ScaledMeanPool2D,
    Sigmoid,
    Square,
    Tanh,
)

#: Layer class of each activation / pool name a quantized block can carry.
ACTIVATION_LAYERS = {"sigmoid": Sigmoid, "tanh": Tanh, "square": Square}
POOL_LAYERS = {"mean": MeanPool2D, "max": MaxPool2D, "scaled_mean": ScaledMeanPool2D}


class Sequential:
    """An ordered stack of layers with shape checking.

    Args:
        layers: layers in forward order.
        input_shape: single-sample shape ``(C, H, W)``; enables early shape
            validation and :meth:`summary`.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...] | None = None) -> None:
        if not layers:
            raise ModelError("a model needs at least one layer")
        self.layers = list(layers)
        self.input_shape = input_shape
        if input_shape is not None:
            self.layer_shapes = self._infer_shapes(input_shape)
        else:
            self.layer_shapes = None

    def _infer_shapes(self, input_shape: tuple[int, ...]) -> list[tuple[int, ...]]:
        shapes = [input_shape]
        for layer in self.layers:
            shapes.append(layer.output_shape(shapes[-1]))
        return shapes

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    __call__ = forward

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads()]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params())

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions (argmax over logits), processed in chunks."""
        outputs = []
        for start in range(0, x.shape[0], batch_size):
            outputs.append(self.forward(x[start : start + batch_size]).argmax(axis=1))
        return np.concatenate(outputs)

    def summary(self) -> str:
        if self.layer_shapes is None:
            raise ModelError("summary requires input_shape at construction")
        lines = [f"input: {self.layer_shapes[0]}"]
        for layer, shape in zip(self.layers, self.layer_shapes[1:]):
            n_params = sum(p.size for p in layer.params())
            lines.append(f"{type(layer).__name__}: -> {shape} ({n_params} params)")
        return "\n".join(lines)


def paper_cnn(rng: np.random.Generator | None = None) -> Sequential:
    """The paper's Table VI / Fig. 7 CNN.

    conv 6 x (5 x 5) stride 1 -> sigmoid -> 2 x 2 mean-pool -> FC to 10
    classes, over 1 x 28 x 28 inputs.
    """
    rng = rng if rng is not None else np.random.default_rng()
    return Sequential(
        [
            Conv2D(1, 6, kernel_size=5, stride=1, rng=rng),
            Sigmoid(),
            MeanPool2D(2),
            Dense(6 * 12 * 12, 10, rng=rng),
        ],
        input_shape=(1, 28, 28),
    )


def cryptonets_cnn(rng: np.random.Generator | None = None) -> Sequential:
    """The CryptoNets-compatible variant of the paper CNN.

    Same shape as :func:`paper_cnn` but with the HE-friendly substitutes the
    pure-HE baseline must use: Square activation and division-free scaled
    mean-pooling.  Train *this* model for the ``Encrypted`` baseline so its
    accuracy is representative.
    """
    rng = rng if rng is not None else np.random.default_rng()
    return Sequential(
        [
            Conv2D(1, 6, kernel_size=5, stride=1, rng=rng),
            Square(),
            ScaledMeanPool2D(2),
            Dense(6 * 12 * 12, 10, rng=rng),
        ],
        input_shape=(1, 28, 28),
    )


def scaled_cnn(
    image_size: int,
    channels: int = 2,
    kernel_size: int = 3,
    pool_window: int = 2,
    cryptonets: bool = False,
    activation: str | None = None,
    pool: str | None = None,
    rng: np.random.Generator | None = None,
) -> Sequential:
    """A dimensionally reduced paper CNN for fast tests and scaled benches.

    Keeps the exact layer sequence of Table VI while shrinking the spatial
    grid, so every pipeline code path is exercised at a fraction of the cost.

    Args:
        cryptonets: shorthand for ``activation="square", pool="scaled_mean"``.
        activation: "sigmoid" (default), "tanh" or "square".
        pool: "mean" (default), "max" or "scaled_mean".
    """
    rng = rng if rng is not None else np.random.default_rng()
    conv_out = image_size - kernel_size + 1
    if conv_out < pool_window or conv_out % pool_window:
        raise ModelError(
            f"image_size {image_size} with kernel {kernel_size} gives a "
            f"{conv_out}-wide map not divisible by pool window {pool_window}"
        )
    pooled = conv_out // pool_window
    activation = activation or ("square" if cryptonets else "sigmoid")
    pool = pool or ("scaled_mean" if cryptonets else "mean")
    if activation not in ACTIVATION_LAYERS:
        raise ModelError(f"unknown activation {activation!r}")
    if pool not in POOL_LAYERS:
        raise ModelError(f"unknown pool {pool!r}")
    return Sequential(
        [
            Conv2D(1, channels, kernel_size=kernel_size, stride=1, rng=rng),
            ACTIVATION_LAYERS[activation](),
            POOL_LAYERS[pool](pool_window),
            Dense(channels * pooled * pooled, 10, rng=rng),
        ],
        input_shape=(1, image_size, image_size),
    )


def deep_cnn(
    image_size: int,
    block_channels: tuple[int, ...] = (4, 8),
    kernel_size: int = 3,
    pool_window: int = 2,
    activation: str = "sigmoid",
    pool: str = "mean",
    rng: np.random.Generator | None = None,
) -> Sequential:
    """A multi-block CNN factory: ``[conv -> act -> pool]*k -> dense``, the
    hybrid's past the paper's single block (exact activations only).

    Raises:
        ModelError: an activation or pool the enclave does not compute, or
            spatial dimensions that do not survive every block.
    """
    rng = rng if rng is not None else np.random.default_rng()
    if activation not in ("sigmoid", "tanh") or pool not in ("mean", "max"):
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
        layers.append(ACTIVATION_LAYERS[activation]())
        layers.append(POOL_LAYERS[pool](pool_window))
        channels = out_channels
        size = conv_out // pool_window
    layers.append(Dense(channels * size * size, 10, rng=rng))
    return Sequential(layers, input_shape=(1, image_size, image_size))
