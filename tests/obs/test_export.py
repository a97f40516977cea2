"""Trace export tests: JSON schema roundtrip, the flat metrics dict, and its
exposition through the registry."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Span,
    metrics_from_trace,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
)


@pytest.fixture()
def trace():
    return Span(
        name="EncryptSGX",
        kind="pipeline",
        real_s=1.0,
        overhead_s=0.5,
        overhead_by_category={"sgx_transition": 0.3, "sgx_marshalling": 0.2},
        op_counts={"ct_add": 7, "ct_plain_mul": 3},
        crossings=2,
        attrs={"batch": 2},
        children=[
            Span("encrypt", kind="stage", real_s=0.2),
            Span(
                "sgx_activation_pool",
                kind="stage",
                real_s=0.5,
                overhead_s=0.5,
                crossings=2,
                children=[
                    Span("activation_pool", kind="ecall", real_s=0.4, crossings=1,
                         attrs={"bytes_in": 100, "bytes_out": 40}),
                    Span("mean_pool", kind="ecall", real_s=0.1, crossings=1,
                         attrs={"bytes_in": 10, "bytes_out": 5}),
                ],
            ),
            Span("fc", kind="stage", real_s=0.3),
        ],
    )


class TestJsonExport:
    def test_schema_fields(self, trace):
        doc = trace_to_dict(trace)
        assert doc["name"] == "EncryptSGX"
        assert doc["kind"] == "pipeline"
        assert doc["elapsed_s"] == pytest.approx(1.5)
        assert doc["overhead_by_category"]["sgx_transition"] == pytest.approx(0.3)
        assert doc["op_counts"] == {"ct_add": 7, "ct_plain_mul": 3}
        assert doc["crossings"] == 2
        assert [c["name"] for c in doc["children"]] == [
            "encrypt", "sgx_activation_pool", "fc",
        ]

    def test_json_roundtrip(self, trace):
        text = trace_to_json(trace)
        json.loads(text)  # valid JSON document
        back = trace_from_json(text)
        assert back.to_dict() == trace.to_dict()

    def test_roundtrip_preserves_nesting(self, trace):
        back = trace_from_json(trace_to_json(trace))
        assert back.find("mean_pool").attrs["bytes_in"] == 10
        assert [s.name for s in back.ecalls()] == ["activation_pool", "mean_pool"]


class TestMetrics:
    def test_pipeline_totals(self, trace):
        m = metrics_from_trace(trace)
        assert m['repro_pipeline_real_seconds{pipeline="EncryptSGX"}'] == pytest.approx(1.0)
        assert m['repro_pipeline_overhead_seconds{pipeline="EncryptSGX"}'] == pytest.approx(0.5)
        assert m['repro_pipeline_crossings_total{pipeline="EncryptSGX"}'] == 2

    def test_stage_families(self, trace):
        m = metrics_from_trace(trace)
        key = 'repro_stage_real_seconds{pipeline="EncryptSGX",stage="sgx_activation_pool"}'
        assert m[key] == pytest.approx(0.5)

    def test_category_decomposition(self, trace):
        m = metrics_from_trace(trace)
        key = 'repro_overhead_seconds{category="sgx_marshalling",pipeline="EncryptSGX"}'
        assert m[key] == pytest.approx(0.2)

    def test_he_op_counts(self, trace):
        m = metrics_from_trace(trace)
        assert m['repro_he_ops_total{op="ct_add",pipeline="EncryptSGX"}'] == 7

    def test_ecall_aggregation(self, trace):
        m = metrics_from_trace(trace)
        assert m['repro_ecall_count{ecall="activation_pool",pipeline="EncryptSGX"}'] == 1
        assert (
            m['repro_ecall_bytes_total{ecall="activation_pool",pipeline="EncryptSGX"}']
            == 140
        )

    def test_custom_prefix(self, trace):
        m = metrics_from_trace(trace, prefix="edge")
        assert any(k.startswith("edge_pipeline_real_seconds") for k in m)

    @staticmethod
    def _exposition(trace):
        registry = MetricsRegistry()
        registry.record_trace(trace)
        return registry.render_prometheus()

    def test_render_prometheus_lines(self, trace):
        """The registry's exposition of a recorded trace carries one sample
        line per entry of the flat view."""
        lines = self._exposition(trace).splitlines()
        samples = [l for l in lines if not l.startswith("#")]
        assert len(samples) == len(metrics_from_trace(trace))
        sample = next(l for l in lines if l.startswith("repro_pipeline_real_seconds"))
        assert sample.endswith(" 1")

    def test_render_prometheus_metadata(self, trace):
        text = self._exposition(trace)
        lines = text.splitlines()
        # One HELP and one TYPE line per family, HELP immediately before TYPE,
        # TYPE immediately before the family's first sample.
        assert (
            "# HELP repro_pipeline_real_seconds "
            "Measured compute seconds per pipeline trace." in lines
        )
        type_idx = lines.index("# TYPE repro_pipeline_real_seconds counter")
        assert lines[type_idx - 1].startswith("# HELP repro_pipeline_real_seconds")
        assert lines[type_idx + 1].startswith("repro_pipeline_real_seconds{")
        # Families are annotated exactly once even with many samples.
        assert text.count("# TYPE repro_stage_real_seconds counter") == 1

    def test_render_prometheus_escapes_label_values(self):
        """A hostile span name cannot break the line format or smuggle in a
        sample of its own."""
        hostile = Span(name='evil"} 1\nfake_metric 2', kind="pipeline", real_s=1.0)
        lines = self._exposition(hostile).splitlines()
        assert 'repro_pipeline_real_seconds{pipeline="evil\\"} 1\\nfake_metric 2"} 1' in lines
        assert not any(l.startswith("fake_metric") for l in lines)


class TestTraceFromDictValidation:
    def test_rejects_unknown_kind(self, trace):
        from repro.errors import TraceFormatError

        doc = trace_to_dict(trace)
        doc["kind"] = "interpretive-dance"
        with pytest.raises(TraceFormatError, match="kind"):
            trace_from_json(json.dumps(doc))

    def test_rejects_missing_fields(self, trace):
        from repro.errors import TraceFormatError

        doc = trace_to_dict(trace)
        del doc["real_s"]
        with pytest.raises(TraceFormatError, match="real_s"):
            trace_from_json(json.dumps(doc))

    def test_rejects_non_dict(self):
        from repro.errors import TraceFormatError
        from repro.obs import trace_from_dict

        with pytest.raises(TraceFormatError):
            trace_from_dict(["not", "a", "span"])

    def test_error_is_repro_error(self):
        from repro.errors import ReproError, TraceFormatError

        assert issubclass(TraceFormatError, ReproError)
        assert issubclass(TraceFormatError, ValueError)
