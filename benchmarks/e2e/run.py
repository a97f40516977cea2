#!/usr/bin/env python3
"""Wall-clock end-to-end benchmark of the HE + SGX inference stack.

One run of one workload (what the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload direct_closed --seed 42 \\
        --seconds 12 --trace 0

sets the deployment up three times (``setup_s`` is the median), then runs
operations on the host wall clock for ``--seconds`` seconds, compares every
decrypted result with the plaintext integer reference, and prints one JSON
object as its last line.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics (``spans.py``).  Metric names, units and bounds live in
``BENCHMARK.json`` only.

A run set (``--out``) runs every workload ``--runs`` times untraced and once
traced, each in a fresh process, and writes medians and quartiles;
``--compare A.json B.json`` applies the bounds to two run sets.  See
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Process-global switches of the program that must not leak into a run.
ENV_SWITCHES = ("REPRO_WORKERS", "REPRO_GRAPH_OPT", "REPRO_FLIGHT_RECORDER")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Put the checkout's ``src`` on the path with the switches cleared."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {source / 'repro'} is missing")
    for switch in ENV_SWITCHES:
        os.environ.pop(switch, None)
    sys.path[:0] = [str(source), str(HERE)]
    steady_allocator()


def steady_allocator() -> None:
    """Keep glibc malloc on the heap: no mmap per large array, no trimming.

    The program allocates and frees arrays of tens of MiB in every
    operation; by default glibc maps and unmaps each one, and in a small VM
    the fresh-page faults cost anything up to 2.4 s per operation at random
    (inter-quartile spread of the wave time on ``packed_waves``: 36-61 % with
    the default, 6 % with this).  The setting changes where the
    allocator gets memory, not the program; flush workers inherit it.
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt, prctl = libc.mallopt, libc.prctl
    except (OSError, AttributeError):
        return  # not glibc: measure with the platform's allocator
    m_trim_threshold, m_top_pad, m_mmap_max = -1, -2, -4
    mallopt(m_mmap_max, 0)
    mallopt(m_trim_threshold, 2**31 - 1)
    mallopt(m_top_pad, 64 << 20)
    pr_set_thp_disable = 41
    prctl(pr_set_thp_disable, 1, 0, 0, 0)


def supervise_run() -> int | None:
    """Fork the run off and, in the parent, outlive everything it starts.

    Returns ``None`` in the child, which goes on to be the run.  The parent
    is made the reaper of the run's orphans, waits for the run and then for
    every other descendant to end, and returns the run's exit code.  The
    flush workers are joined by the run itself, but the ``multiprocessing``
    resource tracker behind their shared-memory arena only ends once it sees
    the run's pipe close, that is *after* the run; without a parent that
    waits for it, it outlives the benchmark command by some milliseconds.
    What has not ended ``grace`` seconds after the run (or at once, if the
    parent is being terminated) is sent SIGTERM, and two seconds later SIGKILL.
    """
    import ctypes
    import signal

    try:
        pr_set_child_subreaper = 36
        ctypes.CDLL("libc.so.6").prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not glibc: the run's own children are still waited for
    run = os.fork()
    if run == 0:
        return None
    grace = 0.0
    status = 1 << 8  # exit code 1, unless the run says otherwise
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        _, status = os.waitpid(run, 0)
        grace = 10.0
    finally:
        since = time.monotonic()
        while True:
            try:
                ended, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break  # no descendant is left
            if ended == 0:
                waited = time.monotonic() - since
                if waited >= grace:
                    # Terminated workers exit and the tracker, which ignores
                    # SIGTERM, then unlinks their arena and ends by itself.
                    signum = signal.SIGTERM if waited < grace + 2.0 else signal.SIGKILL
                    for pid in children_of(os.getpid()):
                        os.kill(pid, signum)
                time.sleep(0.01)
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


def children_of(parent: int) -> list[int]:
    """Live and zombie processes whose parent is ``parent``, from /proc."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                # "pid (comm) state ppid ..."; comm may hold spaces and ")".
                fields = (entry / "stat").read_text().rpartition(")")[2].split()
            except OSError:
                continue  # ended while we looked
            if int(fields[1]) == parent:
                children.append(int(entry.name))
    return children


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest ended child (the
    flush workers), in MiB; Linux reports ``ru_maxrss`` in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def set_up(workload_class, seed: int, setups: int):
    """Set the deployment up ``setups`` times; keep the last one.

    The flush-worker pool is process-wide and outlives a deployment, so it
    is forked once, by the first set-up: a pool forked later shares the
    grown heap copy-on-write, and the first operations after it pay for
    breaking those pages (1-3 s on ``loop_trace``).
    """
    timings = []
    for _ in range(setups):
        start = time.perf_counter()
        workload = workload_class(seed)
        timings.append({**workload.phases.seconds, "total": time.perf_counter() - start})
    return workload, timings


def run_workload(name: str, seed: int, seconds: float, trace: bool, setups: int = SETUPS):
    """Run one workload; returns ``(result, detail)``: the driver's result
    object and what a run set records beside it."""
    import layers
    import spans
    from workloads import WORKLOADS, Outcome

    import_s = time.perf_counter() - _PROCESS_START
    contract = load_contract()
    workload, timings = set_up(WORKLOADS[name], seed, setups)
    try:
        warmup = Outcome.total(workload.warmup)
        # Keyed by "was the operation traced": seconds and images of each kind.
        walls = {False: [], True: []}
        tallies = {False: Outcome(), True: Outcome()}
        recorder = spans.Recorder()
        result_traces: list = []
        sim_start = workload.sim_seconds()
        started = time.perf_counter()
        deadline = started + seconds
        # Traced runs alternate untraced and traced operations, so both see
        # the same drift and their ratio is the tracing overhead.
        while True:
            traced = trace and len(walls[False]) > len(walls[True])
            begin = time.perf_counter()
            if traced:
                workload.traces.clear()
                with spans.installed(recorder), recorder.operation(len(walls[True])):
                    outcome = workload.operation()
                result_traces.extend(workload.traces.values())
            else:
                outcome = workload.operation()
            end = time.perf_counter()
            walls[traced].append(end - begin)
            tallies[traced].add(outcome)
            if end >= deadline and (not trace or len(walls[True]) == len(walls[False])):
                break
        elapsed = end - started
        sim_s = workload.sim_seconds() - sim_start
        measured = Outcome.total(tallies.values())

        values = {}
        if trace:
            values.update(layers.setup_metrics(timings, import_s))
            values.update(layers.layer_metrics(
                workload, recorder, result_traces, len(walls[True]), tallies[True].attempted
            ))
            values["trace.overhead_share"] = (
                statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
            )
            values["op.latency_p90_ms"] = 1e3 * layers.percentile(walls[False], 0.9)
            values["op.failed_share"] = measured.failed / measured.attempted
            chosen = contract["per_layer"]
        else:
            good = measured.attempted - measured.failed
            values["setup_s"] = statistics.median(t["total"] for t in timings)
            values["images_per_s"] = good / elapsed
            values["latency_p50_ms"] = 1e3 * statistics.median(walls[False])
            values["sim_s_per_image"] = sim_s / max(1, good)
            chosen = contract["end_to_end"]
    finally:
        workload.close()
    if not trace:
        values["peak_rss_mb"] = peak_rss_mb()  # after close(): children have ended

    print(warmup.line("warm-up"))
    print(measured.line("measured"))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    result = {
        "correct": warmup.wrong == 0 and measured.wrong == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "operations": len(walls[False]) + len(walls[True]),
        "operation_s": {"untraced": walls[False], "traced": walls[True]},
        "warmup": vars(warmup),
        "setups": timings,
    }
    if trace:
        detail["layers"] = recorder.layer_totals()
        detail["spans"] = recorder.spans()
    return result, detail


# ----------------------------------------------------------------------
# run sets and their comparison
# ----------------------------------------------------------------------
def environment(seed: int, seconds: float, runs: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # no git, or an exported tree
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "setups_per_run": SETUPS,
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3, "runs": values}


def run_set(seed: int, seconds: float, runs: int, out: Path) -> int:
    """Every workload ``runs`` times untraced and once traced, one fresh
    process each, so no process-global state crosses workloads."""
    contract = load_contract()
    report = {"environment": environment(seed, seconds, runs), "workloads": {}}
    wrong = False
    for workload in (w["name"] for w in contract["workloads"]):
        samples: dict[str, list[float]] = {}
        entry = {"runs": []}
        for trace in [0] * runs + [1]:
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace), "--detail"]
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            if not done.stdout.strip():
                sys.exit(f"run.py: {workload} printed no result:\n{done.stderr}")
            *_, detail_line, result_line = done.stdout.strip().splitlines()
            result, detail = json.loads(result_line), json.loads(detail_line)
            wrong = wrong or not result["correct"] or done.returncode != 0
            print(f"{workload} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {detail['operations']} operations")
            if trace:
                entry["per_layer"] = result["metrics"]
                entry["layers"] = detail.pop("layers")
                entry["spans"] = detail.pop("spans")
            else:
                for metric, value in result["metrics"].items():
                    samples.setdefault(metric, []).append(value["value"])
            entry["runs"].append({**detail, **{k: result[k] for k in
                                               ("correct", "attempted", "failed")}})
        entry["end_to_end"] = {m: quartiles(v) for m, v in samples.items()}
        report["workloads"][workload] = entry
    out.write_text(json.dumps(report, indent=1))
    print(f"written to {out}")
    return 1 if wrong else 0


def compare(base_path: Path, other_path: Path) -> int:
    """One row per (workload, metric): ``same``, ``worse`` or ``unresolved``
    (the run-to-run quartile spread of either set exceeds the bound)."""
    contract = load_contract()
    base, other = (json.loads(p.read_text()) for p in (base_path, other_path))
    verdicts = set()
    print(f"{'workload':18} {'metric':16} {'base':>12} {'other':>12} "
          f"{'other/base':>10} {'bound':>6} {'spread':>7}  verdict")
    for workload, entry in base["workloads"].items():
        for metric in contract["end_to_end"]:
            a = entry["end_to_end"][metric["name"]]
            b = other["workloads"][workload]["end_to_end"][metric["name"]]
            ratio = b["median"] / a["median"]
            worsening = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
            separated = (
                min(b["runs"]) > max(a["runs"])
                if metric["better"] == "higher"
                else max(b["runs"]) < min(a["runs"])
            )
            if worsening > metric["bound"]:
                verdict = "worse"
            elif spread > metric["bound"] and not separated:
                verdict = "unresolved"
            else:
                verdict = "same"
            verdicts.add(verdict)
            print(f"{workload:18} {metric['name']:16} {a['median']:12.5g} "
                  f"{b['median']:12.5g} {ratio:10.4f} {metric['bound']:6.2f} "
                  f"{spread:7.3f}  {verdict}")
    return 0 if verdicts <= {"same"} else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this one workload and print its result")
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", action="store_true",
                        help="print the run's detail object on the line before the result")
    parser.add_argument("--out", type=Path, help="run a whole set and write it here")
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload in a set")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    import_program()
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    if args.out:
        return run_set(args.seed, seconds, args.runs, args.out)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} (or use --out / --compare)")
    code = supervise_run()
    if code is not None:
        return code
    result, detail = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    if args.detail:
        print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
