"""Parameter sizing and trained-model factory tests."""

from __future__ import annotations

import pytest

from repro.core import parameters_for_pipeline, train_paper_models
from repro.errors import ParameterError
from repro.he import NoiseEstimator


class TestParametersForPipeline:
    def test_hybrid_fits_model(self, q_sigmoid):
        params = parameters_for_pipeline(q_sigmoid, 256)
        assert q_sigmoid.fits_plain_modulus(params.plain_modulus)

    def test_pure_he_needs_more_modulus(self, q_sigmoid, q_square):
        hybrid = parameters_for_pipeline(q_sigmoid, 256)
        pure = parameters_for_pipeline(q_square, 256)
        # The asymmetry the hybrid framework exploits: the square pipeline
        # needs a dramatically larger coefficient modulus.
        assert pure.coeff_modulus > hybrid.coeff_modulus
        assert pure.plain_modulus > hybrid.plain_modulus

    def test_budget_margin_respected(self, q_square):
        params = parameters_for_pipeline(q_square, 256, margin_bits=8.0)
        estimator = NoiseEstimator(params)
        assert estimator.budget_after(multiplies=1, plain_multiplies=2) >= 8.0

    def test_impossible_request_raises(self, q_square):
        # At degree 256 a huge margin cannot be met with <= 12 primes.
        with pytest.raises(ParameterError):
            parameters_for_pipeline(q_square, 256, margin_bits=400.0)

    def test_name_override(self, q_sigmoid):
        params = parameters_for_pipeline(q_sigmoid, 256, name="bench")
        assert params.name == "bench"


class TestTrainPaperModels:
    def test_scaled_models_shapes(self, models):
        assert models.sigmoid.layer_shapes[0] == (1, 10, 10)
        assert models.square.layer_shapes[0] == (1, 10, 10)

    def test_dataset_cropped(self, models):
        assert models.dataset.train_images.shape[-2:] == (10, 10)

    def test_models_learn_something(self, models):
        from repro.nn import accuracy

        acc = accuracy(
            models.sigmoid, models.dataset.test_float(), models.dataset.test_labels
        )
        assert acc > 0.2  # small data, small model, still far above chance

    def test_quantized_accessors(self, models):
        q = models.quantized_sigmoid(weight_bits=5, act_scale=31)
        assert abs(q.blocks[0].weight).max() <= 15
        assert q.blocks[0].act_scale == 31
        q2 = models.quantized_square(weight_bits=3, input_scale=7)
        assert abs(q2.blocks[0].weight).max() <= 3
        assert q2.input_scale == 7

    def test_full_size_paper_model(self):
        models = train_paper_models(train_size=200, test_size=50, epochs=2)
        assert models.sigmoid.layer_shapes[0] == (1, 28, 28)
        assert models.sigmoid.layer_shapes[1] == (6, 24, 24)
