"""Graph-attributed profiler tests: keys, reconciliation, merge, rendering."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.obs import (
    Span,
    profile_from_trace,
    profile_from_traces,
    render_timeline,
)


def _pipeline(scale: float = 1.0, signature: str = "('conv', 'conv', 1)") -> Span:
    return Span(
        "EncryptSGX",
        kind="pipeline",
        real_s=1.0 * scale,
        overhead_s=0.5 * scale,
        children=[
            Span(
                "conv",
                kind="stage",
                real_s=0.6 * scale,
                attrs={
                    "node_signature": signature,
                    "node_op": "conv",
                    "node_level": 1,
                    "node_headroom_bits": 12.5,
                },
            ),
            Span(
                "sgx_activation_pool",
                kind="stage",
                real_s=0.3 * scale,
                overhead_s=0.5 * scale,
                attrs={"node_signature": "('crossing', ...)", "node_op": "crossing"},
                children=[
                    Span(
                        "activation_pool",
                        kind="ecall",
                        real_s=0.25 * scale,
                        attrs={"bytes_in": 100, "bytes_out": 40},
                    )
                ],
            ),
            Span(
                "decrypt",
                kind="stage",
                real_s=0.1 * scale,
                attrs={"node_op": "decrypt", "noise_budget_bits": 7.0},
            ),
        ],
    )


class TestNodeKeys:
    def test_signature_keys_and_fallback(self):
        report = profile_from_trace(_pipeline())
        assert "('conv', 'conv', 1)" in report.nodes
        assert "('crossing', ...)" in report.nodes
        assert "stage:decrypt" in report.nodes  # no signature -> stage fallback

    def test_node_fields(self):
        report = profile_from_trace(_pipeline())
        conv = report.nodes["('conv', 'conv', 1)"]
        assert conv.op == "conv" and conv.level == 1
        assert conv.headroom_bits == pytest.approx(12.5)
        crossing = report.nodes["('crossing', ...)"]
        assert crossing.ecalls == 1 and crossing.ecall_bytes == 140
        decrypt = report.nodes["stage:decrypt"]
        assert decrypt.noise_budget_bits == pytest.approx(7.0)

    def test_headroom_watermark_is_min(self):
        a = _pipeline()
        b = _pipeline()
        b.children[2].attrs["noise_budget_bits"] = 3.0
        report = profile_from_traces([a, b])
        assert report.nodes["stage:decrypt"].noise_budget_bits == pytest.approx(3.0)


class TestReconciliation:
    def test_attributed_sums_to_wall(self):
        report = profile_from_trace(_pipeline())
        report.reconcile()
        assert report.attributed_real_s == pytest.approx(1.0)
        assert report.attributed_overhead_s == pytest.approx(0.5)
        assert report.coverage() == pytest.approx(1.0)

    def test_over_attribution_rejected(self):
        trace = _pipeline()
        trace.children[0].real_s = 5.0  # stage claims more than the pipeline
        with pytest.raises(ReproError, match="attributed real"):
            profile_from_trace(trace).reconcile()

    def test_under_attribution_allowed_coverage_below_one(self):
        trace = _pipeline()
        trace.children[0].real_s = 0.0  # work outside any stage
        report = profile_from_trace(trace)
        report.reconcile()
        assert report.coverage() < 1.0


class TestMergeAndViews:
    def test_merge_matches_from_traces(self):
        merged = profile_from_trace(_pipeline()).merge(profile_from_trace(_pipeline()))
        direct = profile_from_traces([_pipeline(), _pipeline()])
        assert merged.pipelines == direct.pipelines == 2
        assert merged.attributed_real_s == pytest.approx(direct.attributed_real_s)
        assert merged.wall_real_s == pytest.approx(direct.wall_real_s)
        assert {k: n.count for k, n in merged.nodes.items()} == {
            k: n.count for k, n in direct.nodes.items()
        }
        assert merged.nodes["('conv', 'conv', 1)"].count == 2

    def test_rows_sorted_most_expensive_first(self):
        rows = profile_from_trace(_pipeline()).rows()
        assert [r.elapsed_s for r in rows] == sorted(
            (r.elapsed_s for r in rows), reverse=True
        )

    def test_per_op_folds(self):
        ops = profile_from_trace(_pipeline()).per_op()
        assert set(ops) == {"conv", "crossing", "decrypt"}
        assert ops["crossing"]["ecalls"] == 1

    def test_fold_key_mismatch_rejected(self):
        a = profile_from_trace(_pipeline()).nodes["('conv', 'conv', 1)"]
        b = profile_from_trace(_pipeline(signature="other")).nodes["other"]
        with pytest.raises(ReproError):
            a.fold(b)


class TestRendering:
    def test_table_smoke(self):
        report = profile_from_traces([_pipeline()])
        table = report.render_table(top=2)
        assert "conv" in table and "100.00% coverage" in table
        assert len(table.splitlines()) == 2 + 2 + 1  # header+rule, 2 rows, footer

    def test_timeline_offsets_accumulate(self):
        trace = _pipeline()
        trace.attrs["trace_id"] = "ab" * 8
        text = render_timeline(trace)
        lines = text.splitlines()
        assert lines[0].startswith("[    0.000ms")
        assert "trace_id=abababababababab" in lines[0]
        # second stage starts where the first ended (0.6s -> 600ms)
        assert any(line.lstrip().startswith("[  600.000ms") for line in lines)
