#!/usr/bin/env python
"""Telemetry inspector for exported traces and flight-recorder dumps.

Consumes the JSON artifacts the demo entry point writes
(``python -m repro --serve-demo --trace-json traces.json --flight-dump
flight.json``; single-pipeline runs write one trace object instead of an
array -- both shapes are accepted) and renders or checks them:

* ``costs``    -- merge pipeline traces into a :class:`ProfileReport` and
  print the per-node measured cost table, most expensive first.
* ``timeline`` -- print each request's nested span timeline with
  virtual-time offsets (``--trace-id`` filters to traces carrying that
  request's context).
* ``check``    -- telemetry invariants: every span in every trace must
  resolve a trace id (own attr or inherited), every stage span of a
  serving (``EdgeServer/...``) trace must carry a graph node, per-node
  attributed cost must reconcile against pipeline wall clock, and -- when
  ``--flight``
  is given -- the flight dump must parse with strictly increasing
  sequence numbers and known severities.  Exits non-zero on violation.

Usage::

    python tools/obsctl.py costs --trace traces.json [--top 10]
    python tools/obsctl.py timeline --trace traces.json [--trace-id ID]
    python tools/obsctl.py check --trace traces.json [--flight flight.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs import (  # noqa: E402
    profile_from_traces,
    render_timeline,
    resolve_trace_ids,
    spans_without_context,
    spans_without_node,
    trace_from_dict,
)
from repro.obs.recorder import SEVERITIES  # noqa: E402


def _load_traces(path: str):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    dicts = payload if isinstance(payload, list) else [payload]
    return [trace_from_dict(d) for d in dicts]


def _cmd_costs(args) -> int:
    traces = _load_traces(args.trace)
    pipelines = [t for t in traces if t.kind == "pipeline"]
    if not pipelines:
        print("no pipeline traces in input")
        return 1
    report = profile_from_traces(pipelines)
    print(report.render_table(top=args.top))
    return 0


def _cmd_timeline(args) -> int:
    traces = _load_traces(args.trace)
    if args.trace_id is not None:
        traces = [
            t
            for t in traces
            if any(args.trace_id in ids for _, ids in resolve_trace_ids(t))
        ]
        if not traces:
            print(f"no trace carries trace id {args.trace_id}")
            return 1
    for index, trace in enumerate(traces):
        if index:
            print()
        print(render_timeline(trace))
    return 0


def _check_flight(path: str) -> list[str]:
    problems: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            events = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"flight dump unreadable: {exc}"]
    if not isinstance(events, list):
        return ["flight dump is not a JSON array"]
    last_seq = -1
    for event in events:
        seq = event.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(f"non-monotone seq at {event!r}")
            break
        last_seq = seq
        if event.get("severity") not in SEVERITIES:
            problems.append(f"unknown severity in {event!r}")
        if not event.get("kind"):
            problems.append(f"event without kind: {event!r}")
    return problems


def _cmd_check(args) -> int:
    problems: list[str] = []
    traces = _load_traces(args.trace)
    for index, trace in enumerate(traces):
        for span in spans_without_context(trace):
            problems.append(
                f"trace[{index}] {trace.name!r}: span {span.name!r} "
                "resolves no trace id"
            )
        if trace.name.startswith("EdgeServer/"):
            for span in spans_without_node(trace):
                problems.append(
                    f"trace[{index}] {trace.name!r}: stage {span.name!r} "
                    "carries no graph node"
                )
    pipelines = [t for t in traces if t.kind == "pipeline"]
    if pipelines:
        try:
            profile_from_traces(pipelines).reconcile()
        except Exception as exc:
            problems.append(str(exc))
    if args.flight is not None:
        problems.extend(_check_flight(args.flight))
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    flight_note = " + flight dump" if args.flight is not None else ""
    print(
        f"OK: {len(traces)} trace(s), {len(pipelines)} pipeline(s), "
        f"context + graph-node + profile reconciliation{flight_note} checks passed"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="obsctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    costs = sub.add_parser("costs", help="per-node measured cost table")
    costs.add_argument("--trace", required=True, help="trace JSON path")
    costs.add_argument("--top", type=int, default=None, help="show top N rows")
    costs.set_defaults(func=_cmd_costs)

    timeline = sub.add_parser("timeline", help="per-request span timelines")
    timeline.add_argument("--trace", required=True, help="trace JSON path")
    timeline.add_argument("--trace-id", default=None, help="filter by trace id")
    timeline.set_defaults(func=_cmd_timeline)

    check = sub.add_parser("check", help="telemetry invariants (CI gate)")
    check.add_argument("--trace", required=True, help="trace JSON path")
    check.add_argument("--flight", default=None, help="flight dump JSON path")
    check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
