"""Parameter selection and trained-model factories for the pipelines.

Sizing logic: the hybrid pipeline only needs noise headroom for *one* linear
layer (the enclave refresh resets noise at every activation), whereas the
pure-HE baseline must survive conv -> square -> pool -> FC -> relinearize in
one encrypted breath -- which is why its coefficient modulus (and latency)
balloons.  ``parameters_for_pipeline`` makes that asymmetry concrete and
validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.he import modmath
from repro.he.noise import NoiseEstimator
from repro.he.params import EncryptionParams
from repro.nn.data import Dataset, synthetic_mnist
from repro.nn.model import Sequential, cryptonets_cnn, paper_cnn, scaled_cnn
from repro.nn.quantize import QuantizedCNN
from repro.nn.train import train

#: Largest NTT prime width that keeps int64 products safe.
_PRIME_BITS = 30


def _next_power_of_two(value: int) -> int:
    return 1 << max(2, (value - 1).bit_length())


def parameters_for_pipeline(
    quantized: QuantizedCNN,
    poly_degree: int,
    margin_bits: float = 8.0,
    name: str | None = None,
    batching: bool = False,
) -> EncryptionParams:
    """Smallest parameter set (in prime count) that fits the quantized model.

    The plaintext modulus is the next power of two above the model's
    worst-case intermediate (or, with ``batching=True``, the smallest NTT
    prime above it: images pack under either, and the serving deployments
    keep the prime their recorded numbers use); coefficient primes are added
    until the noise estimator clears the pipeline's circuit with
    ``margin_bits`` to spare.

    Raises:
        ParameterError: no parameter set below 12 primes works (the model
            needs coarser quantization or a larger degree).
    """
    bound = quantized.required_plain_modulus()
    if batching:
        if bound >= 1 << 30:
            raise ParameterError(
                "batching plaintext moduli are limited to 31 bits; the model's "
                f"intermediates need t >= {bound} -- quantize more coarsely"
            )
        t = modmath.ntt_primes(max(2, bound.bit_length() + 1), poly_degree, 1)[0]
    else:
        t = _next_power_of_two(bound)
    pure_he, w_norm, additions = quantized.noise_profile()
    for count in range(1, 13):
        try:
            primes = modmath.ntt_primes(_PRIME_BITS, poly_degree, count)
            params = EncryptionParams(
                poly_degree=poly_degree,
                coeff_primes=tuple(primes),
                plain_modulus=t,
                name=name or f"auto_{poly_degree}_{'he' if pure_he else 'hybrid'}",
            )
        except ParameterError:
            # Too few primes for this t (or no more primes at this degree);
            # try a wider modulus.
            continue
        estimator = NoiseEstimator(params)
        budget = estimator.budget_after(
            multiplies=1 if pure_he else 0,
            plain_multiplies=2,
            plain_norm=w_norm,
            additions=additions,
        )
        if budget >= margin_bits:
            return params
    raise ParameterError(
        f"no parameter set at degree {poly_degree} fits t={t} with the "
        f"required noise budget; reduce quantization scales"
    )


@dataclass
class TrainedModels:
    """A matched pair of trained models plus their dataset.

    ``sigmoid`` is the paper_cnn (hybrid + plaintext pipelines);
    ``square`` is the cryptonets_cnn (pure-HE baseline).  Both are trained
    on the same synthetic data so Fig. 8 comparisons are apples-to-apples.
    """

    dataset: Dataset
    sigmoid: Sequential
    square: Sequential

    def quantized_sigmoid(self, weight_bits: int = 6, act_scale: int = 63) -> QuantizedCNN:
        return QuantizedCNN.from_float(
            self.sigmoid, weight_bits=weight_bits, input_scale=255, act_scale=act_scale
        )

    def quantized_square(self, weight_bits: int = 4, input_scale: int = 15) -> QuantizedCNN:
        return QuantizedCNN.from_float(
            self.square, weight_bits=weight_bits, input_scale=input_scale
        )


def train_paper_models(
    train_size: int = 1200,
    test_size: int = 300,
    epochs: int = 10,
    seed: int = 2021,
    image_size: int = 28,
    channels: int = 6,
    kernel_size: int = 5,
    verbose: bool = False,
) -> TrainedModels:
    """Train the sigmoid and square variants of the paper CNN.

    ``image_size``/``channels``/``kernel_size`` default to the paper's
    Table VI; smaller values produce the dimensionally reduced twin used by
    tests and scaled benchmark runs.
    """
    data = synthetic_mnist(train_size=train_size, test_size=test_size, seed=seed)
    if image_size != 28:
        data = _crop_dataset(data, image_size)
    rng = np.random.default_rng(seed)
    if image_size == 28 and channels == 6 and kernel_size == 5:
        sigmoid_model = paper_cnn(rng)
        square_model = cryptonets_cnn(np.random.default_rng(seed + 1))
    else:
        sigmoid_model = scaled_cnn(image_size, channels, kernel_size, rng=rng)
        square_model = scaled_cnn(
            image_size, channels, kernel_size, cryptonets=True,
            rng=np.random.default_rng(seed + 1),
        )
    # Square nets need damped initialization and a gentler learning rate.
    square_model.layers[0].weight *= 0.3
    square_model.layers[-1].weight *= 0.1
    train(
        sigmoid_model,
        data.train_float(),
        data.train_labels,
        epochs=epochs,
        learning_rate=0.1,
        eval_images=data.test_float(),
        eval_labels=data.test_labels,
        verbose=verbose,
        seed=seed,
    )
    train(
        square_model,
        data.train_float(),
        data.train_labels,
        epochs=epochs,
        learning_rate=0.02,
        eval_images=data.test_float(),
        eval_labels=data.test_labels,
        verbose=verbose,
        seed=seed,
    )
    return TrainedModels(dataset=data, sigmoid=sigmoid_model, square=square_model)


def _crop_dataset(data: Dataset, size: int) -> Dataset:
    """Center-crop a 28 x 28 dataset to ``size`` for the scaled CNN."""
    lo = (28 - size) // 2
    hi = lo + size
    return Dataset(
        train_images=data.train_images[:, :, lo:hi, lo:hi],
        train_labels=data.train_labels,
        test_images=data.test_images[:, :, lo:hi, lo:hi],
        test_labels=data.test_labels,
    )


def required_budget_bits(params: EncryptionParams, pure_he: bool) -> float:
    """Informational: estimated budget the pipeline consumes under ``params``."""
    estimator = NoiseEstimator(params)
    return estimator.fresh_budget() - estimator.budget_after(
        multiplies=1 if pure_he else 0, plain_multiplies=2, additions=1000
    )
