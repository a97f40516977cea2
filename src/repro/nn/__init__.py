"""CNN engine: layers, models, training, synthetic data, quantization.

Everything the privacy-preserving pipelines need from the neural-network
side: the paper's 4-layer CNN (Table VI), from-scratch backprop training,
a synthetic MNIST substitute, and the CryptoNets-style quantizer that turns
a trained float model into the integer form FV evaluates.
"""

from repro.nn.data import IMAGE_SIZE, NUM_CLASSES, Dataset, render_digit, synthetic_mnist
from repro.nn.layers import (
    Activation,
    Conv2D,
    Dense,
    Flatten,
    Layer,
    LeakyReLU,
    MaxPool2D,
    MeanPool2D,
    ReLU,
    ScaledMeanPool2D,
    Sigmoid,
    Square,
    Tanh,
    conv2d_forward,
)
from repro.nn.metrics import accuracy_score, agreement_rate
from repro.nn.model import Sequential, cryptonets_cnn, deep_cnn, paper_cnn, scaled_cnn
from repro.nn.quantize import QuantizedCNN, QuantizedConvBlock
from repro.nn.train import SGD, TrainReport, accuracy, cross_entropy, softmax, train

__all__ = [
    "Activation",
    "Conv2D",
    "Dataset",
    "Dense",
    "Flatten",
    "IMAGE_SIZE",
    "Layer",
    "LeakyReLU",
    "MaxPool2D",
    "MeanPool2D",
    "NUM_CLASSES",
    "QuantizedCNN",
    "QuantizedConvBlock",
    "ReLU",
    "SGD",
    "ScaledMeanPool2D",
    "Sequential",
    "Sigmoid",
    "Square",
    "Tanh",
    "TrainReport",
    "accuracy",
    "accuracy_score",
    "agreement_rate",
    "conv2d_forward",
    "cross_entropy",
    "cryptonets_cnn",
    "deep_cnn",
    "paper_cnn",
    "render_digit",
    "scaled_cnn",
    "softmax",
    "synthetic_mnist",
    "train",
]
