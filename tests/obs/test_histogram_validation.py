"""Histogram validation pass: the exposition refuses corrupt samples."""

from __future__ import annotations

import pytest

from repro.errors import MetricsError
from repro.obs import MetricsRegistry
from repro.obs.metrics import validate_histogram_sample


def _sample(counts=(1, 3, 4), total=4, labels=(("model", "digits"),)):
    """One collected histogram sample, the form ``MetricsSnapshot`` carries."""
    return {
        "labels": dict(labels),
        "buckets": dict(zip(("0.1", "1", "+Inf"), counts)),
        "sum": 2.5,
        "count": total,
    }


class TestFlatValidation:
    """``validate_histogram_sample`` on a plain sample dict, no registry."""

    def test_valid_passes_and_renders(self):
        validate_histogram_sample("repro_latency", _sample())

    def test_non_monotone_buckets_rejected(self):
        with pytest.raises(MetricsError, match="not monotone"):
            validate_histogram_sample("repro_latency", _sample(counts=(3, 1, 4)))

    def test_count_mismatch_rejected(self):
        with pytest.raises(MetricsError, match="top bucket"):
            validate_histogram_sample("repro_latency", _sample(total=7))

    def test_unlabeled_histogram_checked(self):
        validate_histogram_sample("repro_wait", _sample(labels=()))
        with pytest.raises(MetricsError, match="repro_wait: _count 9 != top bucket 4"):
            validate_histogram_sample("repro_wait", _sample(total=9, labels=()))


class TestRegistryValidation:
    def _registry_with_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_request_latency_seconds",
            "Latency.",
            buckets=(0.1, 1.0),
            labelnames=("model",),
        ).labels(model="digits")
        for v in (0.05, 0.5, 5.0):
            hist.observe(v)
        return registry, hist

    def test_clean_registry_renders(self):
        registry, _ = self._registry_with_histogram()
        text = registry.render_prometheus()
        assert 'repro_request_latency_seconds_bucket{le="+Inf",model="digits"} 3' in text
        assert 'repro_request_latency_seconds_count{model="digits"} 3' in text

    def test_corrupt_bucket_counts_rejected(self):
        registry, hist = self._registry_with_histogram()
        hist._counts[1] = -5  # cumulative sequence now decreases
        with pytest.raises(MetricsError, match="not monotone"):
            registry.render_prometheus()

    def test_corrupt_total_rejected(self):
        registry, hist = self._registry_with_histogram()
        hist._count = 99
        with pytest.raises(MetricsError, match="top bucket"):
            registry.render_prometheus()
