"""Graph-executor suite fixtures.

The trained tiny models are shared session-wide; each gets a planted
all-zero conv tap column and a few all-zero FC input rows so the
encode-time zero-column skip has something real to drop (the stock trained
weights are dense).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import parameters_for_pipeline, train_paper_models


@pytest.fixture(scope="session")
def models():
    return train_paper_models(
        train_size=300, test_size=60, epochs=4, image_size=10, channels=2, kernel_size=3
    )


def _plant_zeros(quantized):
    """Zero one conv tap column (all filters) and four FC input rows."""
    block = quantized.blocks[0]
    conv = np.array(block.weight)
    conv[:, 0, 0, 0] = 0
    dense = np.array(quantized.dense_weight)
    dense[:4, :] = 0
    return dataclasses.replace(
        quantized, blocks=[dataclasses.replace(block, weight=conv)], dense_weight=dense
    )


@pytest.fixture(scope="session")
def q_hybrid(models):
    return _plant_zeros(models.quantized_sigmoid())


@pytest.fixture(scope="session")
def q_he(models):
    return _plant_zeros(models.quantized_square())


@pytest.fixture(scope="session")
def hybrid_params(q_hybrid):
    return parameters_for_pipeline(q_hybrid, 256)


@pytest.fixture(scope="session")
def he_params(q_he):
    return parameters_for_pipeline(q_he, 256)


@pytest.fixture(scope="session")
def images(models):
    return models.dataset.test_images[:2]
