"""Bench gate tests: synthetic reports through the real CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
GATE = REPO_ROOT / "tools" / "bench_gate.py"


def _hotpath_report(speedup=3.0, fused_s=0.2, bit_identical=True):
    return {
        "config": {"mode": "smoke"},
        "ntt": {"forward_speedup": 2.0, "inverse_speedup": 2.0},
        "decrypt_poly": {"speedup": 4.0},
        "pack_fold": {"peak_ratio": 1.7, "fused_s": 0.03},
        "fused": {"simulated_s": fused_s},
        "speedup": speedup,
        "bit_identical": {
            "logits": bit_identical,
            "encrypted_input": bit_identical,
            "op_tallies": bit_identical,
            "decrypt_poly": bit_identical,
            "pack_fold": bit_identical,
            "pack_fold_tallies": bit_identical,
        },
    }


def _serving_report(speedup=2.0, mode="smoke"):
    return {
        "config": {"mode": mode},
        "packed": {"images_per_s": 40.0 * speedup, "simulated_s": 0.4 / speedup},
        "speedup": speedup,
        "predictions_match": True,
    }


def _slo_report(ratio=1.05, p99_bounded=True, shed_bounded=True):
    return {
        "config": {"mode": "smoke"},
        "continuous": {
            "images_per_s": 580.0 * ratio,
            "occupancy_mean": 0.8,
            "p99_queue_wait_s": 0.06,
        },
        "throughput_ratio": ratio,
        "slo": {
            "p99_bounded": p99_bounded,
            "shed_rate_bounded": shed_bounded,
            "all_tickets_resolved": True,
        },
        "bit_identical": {"logits": True},
    }


def _fleet_report(ratio_4x=3.5, bit_identical=True):
    return {
        "config": {"mode": "smoke"},
        "fleets": {
            "4": {"images_per_s": 900.0 * ratio_4x / 3.5, "p99_queue_wait_s": 0.05},
        },
        "scaling": {"ratio_2x": 1.9, "ratio_4x": ratio_4x},
        "invariants": {
            "bit_identical": bit_identical,
            "all_tickets_resolved": True,
            "failover_resolved": True,
            "failover_bit_identical": bit_identical,
        },
    }


def _parallel_report(ratio_4x=1.8, byte_identical=True):
    return {
        "config": {"mode": "smoke"},
        "runs": {
            "4": {"images_per_s": 2400.0 * ratio_4x / 1.8, "p99_queue_wait_s": 0.11},
        },
        "scaling": {"ratio_2x": 1.45, "ratio_4x": ratio_4x},
        "invariants": {
            "speedup_floor": ratio_4x >= 1.5,
            "byte_identical": byte_identical,
            "bit_identical": byte_identical,
            "all_tickets_resolved": True,
            "chaos_recovered": True,
            "chaos_byte_identical": byte_identical,
        },
    }


def _graph_report(speedup_safe=1.8, bit_identical=True):
    return {
        "config": {"mode": "smoke"},
        "hybrid": {
            "speedup_safe": speedup_safe,
            "speedup_aggressive": speedup_safe * 1.05,
            "safe_simulated_s": 0.17 / speedup_safe,
        },
        "cryptonets": {"speedup_safe": 1.0},
        "invariants": {
            "bit_identical": bit_identical,
            "speedup_floor": speedup_safe >= 1.3,
        },
    }


def _write_pair(
    directory: Path,
    hotpath: dict,
    serving: dict,
    slo: dict | None = None,
    fleet: dict | None = None,
    parallel: dict | None = None,
    graph: dict | None = None,
) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_hotpath.json").write_text(json.dumps(hotpath))
    (directory / "BENCH_serving.json").write_text(json.dumps(serving))
    (directory / "BENCH_slo.json").write_text(
        json.dumps(slo if slo is not None else _slo_report())
    )
    (directory / "BENCH_fleet.json").write_text(
        json.dumps(fleet if fleet is not None else _fleet_report())
    )
    (directory / "BENCH_parallel.json").write_text(
        json.dumps(parallel if parallel is not None else _parallel_report())
    )
    (directory / "BENCH_graph.json").write_text(
        json.dumps(graph if graph is not None else _graph_report())
    )


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
        assert set(doc["benches"]) == {
            "hotpath", "serving", "slo", "fleet", "parallel", "graph"
        }

    def test_slo_invariant_violation_fails(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(), _serving_report(),
            slo=_slo_report(p99_bounded=False),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "slo.p99_bounded" in proc.stdout

    def test_fleet_invariant_violation_fails(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(), _serving_report(),
            fleet=_fleet_report(bit_identical=False),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "invariants.bit_identical" in proc.stdout

    def test_fleet_scaling_regression_fails(self, tmp_path):
        _write_pair(
            tmp_path / "base", _hotpath_report(), _serving_report(),
            fleet=_fleet_report(ratio_4x=3.5),
        )
        _write_pair(
            tmp_path / "cur", _hotpath_report(), _serving_report(),
            fleet=_fleet_report(ratio_4x=1.0),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "scaling.ratio_4x" in proc.stdout

    def test_parallel_byte_identity_violation_fails(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(), _serving_report(),
            parallel=_parallel_report(byte_identical=False),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "invariants.byte_identical" in proc.stdout

    def test_parallel_speedup_floor_violation_fails(self, tmp_path):
        """The 1.5x floor is a hard invariant: a current run below it fails
        even when the ratio drop is inside --tolerance."""
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(), _serving_report(),
            parallel=_parallel_report(ratio_4x=1.4),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "invariants.speedup_floor" in proc.stdout

    def test_graph_bit_identity_violation_fails(self, tmp_path):
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(), _serving_report(),
            graph=_graph_report(bit_identical=False),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "invariants.bit_identical" in proc.stdout

    def test_graph_speedup_floor_violation_fails(self, tmp_path):
        """The 1.3x hybrid-safe floor is a hard invariant: a current run
        below it fails even when the ratio drop is inside --tolerance."""
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(), _serving_report(),
            graph=_graph_report(speedup_safe=1.2),
        )
        proc = _gate(tmp_path / "base", tmp_path / "cur")
        assert proc.returncode == 1
        assert "invariants.speedup_floor" in proc.stdout

    def test_bench_selection_scopes_the_gate(self, tmp_path):
        """--bench gates only the named benches: a broken slo report is
        invisible to a hotpath+serving-scoped run and fatal to an
        slo-scoped one."""
        _write_pair(tmp_path / "base", _hotpath_report(), _serving_report())
        _write_pair(
            tmp_path / "cur", _hotpath_report(), _serving_report(),
            slo=_slo_report(shed_bounded=False),
        )
        scoped = _gate(
            tmp_path / "base", tmp_path / "cur",
            "--bench", "hotpath", "--bench", "serving",
        )
        assert scoped.returncode == 0, scoped.stdout + scoped.stderr
        slo_only = _gate(tmp_path / "base", tmp_path / "cur", "--bench", "slo")
        assert slo_only.returncode == 1
        assert "slo.shed_rate_bounded" in slo_only.stdout

    def test_checked_in_baselines_self_compare(self):
        """The shipped baselines must pass against themselves."""
        baselines = REPO_ROOT / "benchmarks" / "baselines"
        proc = _gate(baselines, baselines)
        assert proc.returncode == 0, proc.stdout + proc.stderr
