"""Model container, training loop, data generator and metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import (
    SGD,
    Sequential,
    accuracy_score,
    agreement_rate,
    cross_entropy,
    cryptonets_cnn,
    paper_cnn,
    render_digit,
    scaled_cnn,
    softmax,
    synthetic_mnist,
    train,
)
from repro.nn.layers import Dense, ReLU


class TestSequential:
    def test_paper_cnn_shapes_match_table_vi(self):
        model = paper_cnn(np.random.default_rng(0))
        assert model.layer_shapes == [
            (1, 28, 28),
            (6, 24, 24),  # conv 6 x (5 x 5), stride 1
            (6, 24, 24),  # sigmoid
            (6, 12, 12),  # 2 x 2 mean-pool
            (10,),  # fully connected
        ]

    def test_paper_cnn_parameter_count(self):
        model = paper_cnn(np.random.default_rng(0))
        # conv: 6*1*5*5 + 6; dense: 864*10 + 10
        assert model.parameter_count() == 156 + 8650

    def test_empty_model_rejected(self):
        with pytest.raises(ModelError):
            Sequential([])

    def test_forward_backward_roundtrip_shapes(self):
        model = paper_cnn(np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 1, 28, 28))
        out = model.forward(x)
        assert out.shape == (3, 10)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_summary_lists_layers(self):
        text = paper_cnn(np.random.default_rng(0)).summary()
        for name in ("Conv2D", "Sigmoid", "MeanPool2D", "Dense"):
            assert name in text

    def test_scaled_cnn_shrinks_grid(self):
        model = scaled_cnn(image_size=10, channels=2, kernel_size=3)
        assert model.layer_shapes[0] == (1, 10, 10)
        assert model.layer_shapes[-1] == (10,)

    def test_scaled_cnn_rejects_indivisible(self):
        with pytest.raises(ModelError):
            scaled_cnn(image_size=10, kernel_size=4)  # 7 not divisible by 2

    def test_cryptonets_cnn_uses_square_and_sum_pool(self):
        from repro.nn.layers import ScaledMeanPool2D, Square

        model = cryptonets_cnn(np.random.default_rng(0))
        assert isinstance(model.layers[1], Square)
        assert isinstance(model.layers[2], ScaledMeanPool2D)


class TestLossAndOptimizer:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(4, 10)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs > 0).all()

    def test_softmax_stability_with_huge_logits(self):
        probs = softmax(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        assert np.isfinite(probs).all()

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, grad = cross_entropy(logits, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(grad, 0.0, atol=1e-6)

    def test_cross_entropy_gradient_direction(self):
        logits = np.zeros((1, 3))
        _, grad = cross_entropy(logits, np.array([1]))
        assert grad[0, 1] < 0  # pull the true class up
        assert grad[0, 0] > 0 and grad[0, 2] > 0

    def test_cross_entropy_batch_mismatch(self):
        with pytest.raises(ModelError):
            cross_entropy(np.zeros((2, 3)), np.array([0]))

    def test_sgd_descends_quadratic(self):
        p = np.array([10.0])
        opt = SGD(learning_rate=0.1, momentum=0.0)
        for _ in range(100):
            opt.step([p], [2 * p])
        assert abs(p[0]) < 1e-3

    def test_sgd_clipping_bounds_update(self):
        p = np.array([0.0])
        opt = SGD(learning_rate=1.0, momentum=0.0, clip_norm=1.0)
        opt.step([p], [np.array([1e9])])
        assert abs(p[0]) <= 1.0 + 1e-9

    def test_sgd_length_mismatch(self):
        with pytest.raises(ModelError):
            SGD().step([np.zeros(1)], [])


class TestTraining:
    def test_learns_tiny_problem(self):
        rng = np.random.default_rng(0)
        # Two linearly separable blobs rendered as flat "images".
        x = np.concatenate(
            [rng.normal(-2, 0.3, size=(50, 4)), rng.normal(2, 0.3, size=(50, 4))]
        )
        y = np.array([0] * 50 + [1] * 50)
        model = Sequential([Dense(4, 8, rng=rng), ReLU(), Dense(8, 2, rng=rng)])
        report = train(model, x, y, epochs=30, batch_size=16, learning_rate=0.05)
        assert report.final_accuracy > 0.95
        assert report.losses[-1] < report.losses[0]

    def test_paper_cnn_learns_synthetic_digits(self):
        data = synthetic_mnist(train_size=600, test_size=150, seed=3)
        model = paper_cnn(np.random.default_rng(0))
        report = train(
            model,
            data.train_float(),
            data.train_labels,
            epochs=8,
            batch_size=32,
            learning_rate=0.1,
            eval_images=data.test_float(),
            eval_labels=data.test_labels,
        )
        assert report.final_accuracy > 0.5  # far above the 0.1 chance level


class TestSyntheticData:
    def test_deterministic_for_seed(self):
        a = synthetic_mnist(train_size=20, test_size=5, seed=42)
        b = synthetic_mnist(train_size=20, test_size=5, seed=42)
        assert np.array_equal(a.train_images, b.train_images)
        assert np.array_equal(a.test_labels, b.test_labels)

    def test_seed_changes_data(self):
        a = synthetic_mnist(train_size=20, test_size=5, seed=1)
        b = synthetic_mnist(train_size=20, test_size=5, seed=2)
        assert not np.array_equal(a.train_images, b.train_images)

    def test_shapes_and_dtype(self):
        data = synthetic_mnist(train_size=30, test_size=10, seed=0)
        assert data.train_images.shape == (30, 1, 28, 28)
        assert data.test_images.shape == (10, 1, 28, 28)
        assert data.train_images.dtype == np.uint8

    def test_all_classes_present(self):
        data = synthetic_mnist(train_size=100, test_size=30, seed=0)
        assert set(data.train_labels.tolist()) == set(range(10))

    def test_float_accessor_range(self):
        data = synthetic_mnist(train_size=10, test_size=5, seed=0)
        floats = data.train_float()
        assert floats.min() >= 0.0 and floats.max() <= 1.0

    def test_render_digit_is_drawable(self):
        rng = np.random.default_rng(0)
        img = render_digit(7, rng)
        assert img.shape == (28, 28)
        assert img.max() > 100  # ink present
        assert img.dtype == np.uint8

    def test_digits_are_distinguishable(self):
        """Mean images of different digits must differ substantially."""
        rng = np.random.default_rng(0)
        mean0 = np.mean([render_digit(0, rng) for _ in range(10)], axis=0)
        mean1 = np.mean([render_digit(1, rng) for _ in range(10)], axis=0)
        assert np.abs(mean0 - mean1).mean() > 5


class TestMetrics:
    def test_accuracy_score(self):
        assert accuracy_score(np.array([1, 2, 3]), np.array([1, 2, 4])) == pytest.approx(2 / 3)

    def test_accuracy_rejects_empty(self):
        with pytest.raises(ModelError):
            accuracy_score(np.array([]), np.array([]))

    def test_accuracy_rejects_shape_mismatch(self):
        with pytest.raises(ModelError):
            accuracy_score(np.array([1]), np.array([1, 2]))

    def test_agreement_rate_perfect(self):
        assert agreement_rate(np.array([1, 2]), np.array([1, 2])) == 1.0
