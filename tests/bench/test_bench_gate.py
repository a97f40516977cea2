"""Bench gate tests: synthetic reports through the real CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
GATE = REPO_ROOT / "tools" / "bench_gate.py"


def _hotpath_report(speedup=3.0, fused_s=0.2, bit_identical=True, ntt_s=0.012):
    return {
        "config": {"mode": "smoke"},
        "ntt": {"forward_speedup": 2.0, "inverse_speedup": 2.0, "fused_forward_s": ntt_s},
        "decrypt_poly": {"speedup": 4.0},
        "pack_fold": {"peak_ratio": 1.7, "fused_s": 0.03},
        "ct_multiply": {"speedup": 3.5, "fused_s": 0.2},
        "relinearize": {"speedup": 3.0, "fused_s": 0.05},
        "fused": {"simulated_s": fused_s},
        "speedup": speedup,
        "bit_identical": {
            "logits": bit_identical,
            "encrypted_input": bit_identical,
            "op_tallies": bit_identical,
            "decrypt_poly": bit_identical,
            "pack_fold": bit_identical,
            "pack_fold_tallies": bit_identical,
            "ct_multiply": bit_identical,
            "relinearize": bit_identical,
            "ct_multiply_tallies": bit_identical,
        },
    }


def _serving_report(speedup=2.0, mode="smoke", overrides=None):
    """A passing serving report, with ``overrides`` ({dotted path: value})
    written over it."""
    report = {
        "config": {"mode": mode},
        "packing": {
            "packed": {"images_per_s": 40.0 * speedup, "simulated_s": 0.4 / speedup},
            "speedup": speedup,
            "predictions_match": True,
        },
        "loop": {
            "images_per_s": 590.0,
            "occupancy_mean": 0.8,
            "p99_queue_wait_s": 0.06,
            "slo": {
                "p99_bounded": True,
                "shed_rate_bounded": True,
                "all_tickets_resolved": True,
            },
            "bit_identical": True,
        },
        "fleet": {
            "bit_identical": True,
            "all_tickets_resolved": True,
            "failover_resolved": True,
            "failover_bit_identical": True,
        },
    }
    for path, value in (overrides or {}).items():
        *parents, leaf = path.split(".")
        node = report
        for part in parents:
            node = node[part]
        node[leaf] = value
    return report


def _write_pair(directory: Path, hotpath: dict, serving: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_hotpath.json").write_text(json.dumps(hotpath))
    (directory / "BENCH_serving.json").write_text(json.dumps(serving))


def _gate(baseline_dir: Path, current_dir: Path, *extra: str):
    return subprocess.run(
        [sys.executable, str(GATE), "--baseline-dir", str(baseline_dir),
         "--current-dir", str(current_dir), *extra],
        capture_output=True, text=True,
    )


class TestBenchGate:
    def test_identical_reports_pass(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(tmp_path / "cur", _hotpath_report(), _serving_report())
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all metrics within tolerance" in proc.stdout

    def test_drop_within_tolerance_passes(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(speedup=3.0), _serving_report())
        _write_pair(tmp_path / "cur", _hotpath_report(speedup=2.5), _serving_report())
        assert _gate(tmp_path / "base", tmp_path / "cur").returncode == 0

    def test_regression_beyond_tolerance_fails(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(speedup=3.0), _serving_report())
        _write_pair(tmp_path / "cur", _hotpath_report(speedup=1.0), _serving_report())
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "REGRESSION DETECTED" in proc.stderr
        assert "FAIL speedup" in proc.stdout

    def test_tightened_baseline_fails_current(self, tmp_path):
        """The ISSUE's acceptance demo: tightening a checked-in baseline
        must flip the gate from pass to fail on the same current run."""
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report(speedup=2.0))
        _write_pair(tmp_path / "cur", _hotpath_report(), _serving_report(speedup=2.0))
        assert _gate(tmp_path / "base", tmp_path / "cur").returncode == 0
        _write_pair(
            tmp_path / "base", _hotpath_report(), _serving_report(speedup=20.0)
        )
        assert _gate(tmp_path / "base", tmp_path / "cur").returncode == 1

    def test_timing_blowup_fails(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(fused_s=0.2), _serving_report())
        _write_pair(tmp_path / "cur", _hotpath_report(fused_s=2.0), _serving_report())
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "fused.simulated_s" in proc.stdout

    def test_transform_timing_is_gated(self, tmp_path):
        """The workload-shaped forward NTT is a gated timing of its own: the
        end-to-end figure runs at the bench's model size, not the e2e one."""
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(tmp_path / "cur", _hotpath_report(ntt_s=0.065), _serving_report())
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "ntt.fused_forward_s" in proc.stdout

    def test_invariant_violation_fails_regardless_of_tolerance(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(bit_identical=False), _serving_report()
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur", "--tolerance", "0.99",
                     "--timing-tolerance", "99")
        assert proc.returncode == 1
        assert "violated" in proc.stdout

    def test_mode_mismatch_fails_with_regenerate_hint(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report(mode="full"))
        _write_pair(tmp_path / "cur", _hotpath_report(), _serving_report(mode="smoke"))
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "config.mode mismatch" in proc.stdout
        assert "regenerate" in proc.stdout

    def test_missing_report_fails(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        (tmp_path / "cur").mkdir()
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "missing report" in proc.stdout

    def test_report_json_written(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(tmp_path / "cur", _hotpath_report(), _serving_report())
        report = tmp_path / "gate.json"
        _gate(tmp_path / "base", tmp_path / "cur", "--report", str(report))
        doc = json.loads(report.read_text())
        assert doc["ok"] is True
        assert set(doc["benches"]) == {"hotpath", "serving"}

    def test_slo_invariant_violation_fails(self, tmp_path):
        self._assert_serving_violation(tmp_path, "loop.slo.p99_bounded")

    def test_fleet_invariant_violation_fails(self, tmp_path):
        self._assert_serving_violation(tmp_path, "fleet.bit_identical")

    @pytest.mark.parametrize(
        "path",
        [
            "packing.predictions_match",
            "loop.slo.shed_rate_bounded",
            "loop.slo.all_tickets_resolved",
            "loop.bit_identical",
            "fleet.all_tickets_resolved",
            "fleet.failover_resolved",
            "fleet.failover_bit_identical",
        ],
    )
    def test_serving_invariant_violation_fails(self, tmp_path, path):
        self._assert_serving_violation(tmp_path, path)

    def _assert_serving_violation(self, tmp_path, path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(),
            _serving_report(overrides={path: False}),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert f"FAIL {path}" in proc.stdout

    def test_loop_policy_pin_regression_fails(self, tmp_path):
        """The loop's virtual-timeline pins are deterministic: a drop past
        tolerance means the admission policy changed."""
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(),
            _serving_report(overrides={"loop.occupancy_mean": 0.4}),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "FAIL loop.occupancy_mean" in proc.stdout

    def test_bench_selection_scopes_the_gate(self, tmp_path):
        """--bench gates only the named benches: a broken serving report is
        invisible to a hotpath-scoped run and fatal to a serving-scoped
        one."""
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(),
            _serving_report(overrides={"loop.slo.shed_rate_bounded": False}),
        )
        scoped = _gate(tmp_path / "base", tmp_path / "cur", "--bench", "hotpath")
        assert scoped.returncode == 0, scoped.stdout + scoped.stderr
        serving_only = _gate(tmp_path / "base", tmp_path / "cur", "--bench", "serving")
        assert serving_only.returncode == 1
        assert "loop.slo.shed_rate_bounded" in serving_only.stdout

    def test_checked_in_baselines_self_compare(self):
        """The shipped baselines must pass against themselves."""
        baselines = REPO_ROOT / "benchmarks" / "baselines"
        proc = _gate(baselines, baselines)
        assert proc.returncode == 0, proc.stdout + proc.stderr
