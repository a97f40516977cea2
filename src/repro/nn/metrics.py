"""Evaluation metrics for classification pipelines."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


def accuracy_score(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of matching predictions."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ModelError("predictions and labels must have equal shape")
    if predictions.size == 0:
        raise ModelError("cannot score an empty prediction set")
    return float((predictions == labels).mean())


def agreement_rate(a: np.ndarray, b: np.ndarray) -> float:
    """Fraction of samples on which two pipelines predict the same class.

    The paper's accuracy claim (Section VII-B: "all the accuracy rates are
    consistent with the plaintext predictions") is exactly
    ``agreement_rate(hybrid, plaintext) == 1.0``.
    """
    return accuracy_score(np.asarray(a), np.asarray(b))
