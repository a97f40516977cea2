#!/usr/bin/env python
"""Benchmark regression gate: compare fresh bench runs against baselines.

Two benchmark scripts emit JSON reports (``bench_hotpath_kernels``,
``bench_serving``; selected with ``--bench hotpath|serving``); this tool
compares fresh reports against the checked-in ones under
``benchmarks/baselines/`` and exits non-zero when a gated metric regressed
beyond tolerance.  Because the reports mix *ratio*
metrics (speedups -- stable across machines, the real regression signal)
with *timing* metrics (absolute seconds -- machine-dependent), the two
classes carry separate tolerances:

* ratio metrics fail when ``current < baseline * (1 - tolerance)``
  (higher is better) -- default tolerance 0.35;
* timing metrics fail when ``current > baseline * (1 + timing_tolerance)``
  (lower is better) -- default tolerance 3.0, deliberately loose so only
  order-of-magnitude blowups trip CI from a different machine;
* boolean invariants (``bit_identical``, ``predictions_match``) are hard:
  any ``False`` fails regardless of tolerance.

A gated number is either produced by a clock (host wall time, or the
``SimClock``'s measured compute plus SGX cost model) or is a deterministic
pin of a policy (the ``loop.*`` rows: the serving loop's virtual timeline).
Ratios that only restate ``ServiceTimeModel`` constants are not gated.

Usage::

    python tools/bench_gate.py --current-dir .            # compare existing
    python tools/bench_gate.py --run --smoke              # run benches first
    python tools/bench_gate.py --run --smoke --report gate_report.json
    python tools/bench_gate.py --run --smoke --bench serving  # one bench only

Refreshing baselines (after an intentional performance change)::

    python benchmarks/bench_hotpath_kernels.py --smoke \
        --out benchmarks/baselines/BENCH_hotpath.json
    python benchmarks/bench_serving.py --smoke --min-speedup 1.0 \
        --out benchmarks/baselines/BENCH_serving.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class MetricSpec:
    """One gated value inside a bench report.

    Attributes:
        path: dotted path into the report JSON (e.g. ``ntt.forward_speedup``).
        kind: ``ratio`` (higher better), ``timing`` (lower better) or
            ``invariant`` (must be truthy in *both* reports).
    """

    path: str
    kind: str


BENCHES: dict[str, dict] = {
    "hotpath": {
        "file": "BENCH_hotpath.json",
        "script": "benchmarks/bench_hotpath_kernels.py",
        "metrics": (
            MetricSpec("speedup", "ratio"),
            MetricSpec("ntt.forward_speedup", "ratio"),
            MetricSpec("ntt.inverse_speedup", "ratio"),
            MetricSpec("decrypt_poly.speedup", "ratio"),
            MetricSpec("pack_fold.peak_ratio", "ratio"),
            MetricSpec("ct_multiply.speedup", "ratio"),
            MetricSpec("relinearize.speedup", "ratio"),
            MetricSpec("fused.simulated_s", "timing"),
            MetricSpec("ntt.fused_forward_s", "timing"),
            MetricSpec("pack_fold.fused_s", "timing"),
            MetricSpec("ct_multiply.fused_s", "timing"),
            MetricSpec("relinearize.fused_s", "timing"),
            MetricSpec("bit_identical.logits", "invariant"),
            MetricSpec("bit_identical.encrypted_input", "invariant"),
            MetricSpec("bit_identical.op_tallies", "invariant"),
            MetricSpec("bit_identical.decrypt_poly", "invariant"),
            MetricSpec("bit_identical.pack_fold", "invariant"),
            MetricSpec("bit_identical.pack_fold_tallies", "invariant"),
            MetricSpec("bit_identical.ct_multiply", "invariant"),
            MetricSpec("bit_identical.relinearize", "invariant"),
            MetricSpec("bit_identical.ct_multiply_tallies", "invariant"),
        ),
    },
    "serving": {
        "file": "BENCH_serving.json",
        "script": "benchmarks/bench_serving.py",
        "metrics": (
            # packing: the SimClock measures these (real compute + SGX model).
            MetricSpec("packing.speedup", "ratio"),
            MetricSpec("packing.packed.images_per_s", "ratio"),
            MetricSpec("packing.packed.simulated_s", "timing"),
            MetricSpec("packing.predictions_match", "invariant"),
            # loop: deterministic virtual-timeline pins of the admission policy.
            MetricSpec("loop.images_per_s", "ratio"),
            MetricSpec("loop.occupancy_mean", "ratio"),
            MetricSpec("loop.p99_queue_wait_s", "timing"),
            MetricSpec("loop.slo.p99_bounded", "invariant"),
            MetricSpec("loop.slo.shed_rate_bounded", "invariant"),
            MetricSpec("loop.slo.all_tickets_resolved", "invariant"),
            MetricSpec("loop.bit_identical", "invariant"),
            MetricSpec("fleet.bit_identical", "invariant"),
            MetricSpec("fleet.all_tickets_resolved", "invariant"),
            MetricSpec("fleet.failover_resolved", "invariant"),
            MetricSpec("fleet.failover_bit_identical", "invariant"),
        ),
    },
}


def _lookup(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _check_metric(spec: MetricSpec, baseline, current, args) -> dict:
    """Evaluate one metric; returns a result row with ``ok`` and ``detail``."""
    row = {
        "metric": spec.path,
        "kind": spec.kind,
        "baseline": baseline,
        "current": current,
    }
    if baseline is None or current is None:
        row["ok"] = False
        row["detail"] = "missing from report"
        return row
    if spec.kind == "invariant":
        row["ok"] = bool(current)
        row["detail"] = "holds" if row["ok"] else "violated"
        return row
    baseline = float(baseline)
    current = float(current)
    if spec.kind == "ratio":
        floor = baseline * (1.0 - args.tolerance)
        row["ok"] = current >= floor
        row["detail"] = f"floor {floor:.4g} (baseline {baseline:.4g} - {args.tolerance:.0%})"
    else:  # timing
        ceiling = baseline * (1.0 + args.timing_tolerance)
        row["ok"] = current <= ceiling
        row["detail"] = (
            f"ceiling {ceiling:.4g} (baseline {baseline:.4g} + {args.timing_tolerance:.0%})"
        )
    return row


def _run_bench(name: str, smoke: bool, out: Path) -> None:
    cmd = [sys.executable, str(REPO_ROOT / BENCHES[name]["script"]), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    # The gate, not the bench's absolute threshold, is the arbiter here:
    # absolute speedup floors are machine-dependent, relative-to-baseline
    # comparison is not.
    cmd += ["--min-speedup", "1.0"]
    print(f"running {name} bench: {' '.join(cmd[1:])}")
    subprocess.run(cmd, check=True, cwd=REPO_ROOT)


def gate(args) -> tuple[bool, dict]:
    """Compare current reports with baselines; returns (ok, report dict)."""
    results = {"benches": {}, "ok": True}
    for name in args.bench or list(BENCHES):
        bench = BENCHES[name]
        baseline_path = Path(args.baseline_dir) / bench["file"]
        current_path = Path(args.current_dir) / bench["file"]
        bench_result = {
            "baseline": str(baseline_path),
            "current": str(current_path),
            "metrics": [],
        }
        results["benches"][name] = bench_result
        missing = [p for p in (baseline_path, current_path) if not p.is_file()]
        if missing:
            bench_result["ok"] = False
            bench_result["error"] = f"missing report(s): {[str(p) for p in missing]}"
            results["ok"] = False
            continue
        baseline = json.loads(baseline_path.read_text())
        current = json.loads(current_path.read_text())
        base_mode = _lookup(baseline, "config.mode")
        cur_mode = _lookup(current, "config.mode")
        if base_mode != cur_mode:
            bench_result["ok"] = False
            bench_result["error"] = (
                f"config.mode mismatch (baseline {base_mode!r} vs current "
                f"{cur_mode!r}); regenerate the baseline with the matching "
                f"bench flags (see module docstring)"
            )
            results["ok"] = False
            continue
        rows = [
            _check_metric(spec, _lookup(baseline, spec.path), _lookup(current, spec.path), args)
            for spec in bench["metrics"]
        ]
        bench_result["metrics"] = rows
        bench_result["ok"] = all(row["ok"] for row in rows)
        results["ok"] = results["ok"] and bench_result["ok"]
    return results["ok"], results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        default=str(REPO_ROOT / "benchmarks" / "baselines"),
        help="directory holding the checked-in baseline reports",
    )
    parser.add_argument(
        "--current-dir",
        default=str(REPO_ROOT),
        help="directory holding the fresh BENCH_*.json reports",
    )
    parser.add_argument(
        "--run",
        action="store_true",
        help="run the selected benchmark scripts into --current-dir first",
    )
    parser.add_argument(
        "--bench",
        action="append",
        choices=sorted(BENCHES),
        default=None,
        help="gate only this bench (repeatable; default: all)",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="pass --smoke to the benches (with --run)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed relative drop for ratio metrics (default 0.35)",
    )
    parser.add_argument(
        "--timing-tolerance",
        type=float,
        default=3.0,
        help="allowed relative growth for absolute timings (default 3.0)",
    )
    parser.add_argument(
        "--report", default=None, help="write the gate verdict as JSON to this path"
    )
    args = parser.parse_args(argv)

    if args.run:
        for name in args.bench or list(BENCHES):
            _run_bench(name, args.smoke, Path(args.current_dir) / BENCHES[name]["file"])

    ok, results = gate(args)
    for name, bench_result in results["benches"].items():
        status = "PASS" if bench_result.get("ok") else "FAIL"
        print(f"[{status}] {name}")
        if "error" in bench_result:
            print(f"    {bench_result['error']}")
        for row in bench_result["metrics"]:
            mark = "ok  " if row["ok"] else "FAIL"
            print(
                f"    {mark} {row['metric']}: {row['current']} "
                f"vs baseline {row['baseline']} ({row['detail']})"
            )
    if args.report:
        Path(args.report).write_text(json.dumps(results, indent=2) + "\n")
        print(f"gate report written to {args.report}")
    if not ok:
        print("bench gate: REGRESSION DETECTED", file=sys.stderr)
        return 1
    print("bench gate: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
