"""Checks of the benchmark itself (not collected by tier-1; about 2 minutes).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import functools
import json
import re

import pytest

import run

run.import_program()

import spans  # noqa: E402  (needs the path import_program sets)
from repro.he import serialize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = run.load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 5
#: Counts that must repeat exactly for equal seeds.
DETERMINISTIC = (
    "serve.loop.flushes",
    "serve.loop.shed",
    "serve.scheduler.flushes",
    "sgx.ecall.calls_per_image",
    "sgx.ecall.bytes_per_image",
    "he.ntt.forward_calls",
    "he.ntt.inverse_calls",
    "he.encryptor.calls",
    "he.decryptor.calls",
)


@functools.lru_cache(maxsize=None)
def tiny_run(workload: str, trace: bool, repeat: int = 0):
    """One set-up and as few operations as a run can have."""
    result, _ = run.run_workload(workload, SEED, 0.01, trace, setups=1)
    return result


def names(section: str) -> list[str]:
    return [entry["name"] for entry in CONTRACT[section]]


def test_contract_names_are_well_formed_and_unique():
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert all(NAME.fullmatch(name) for name in every)
    assert len(set(every)) == len(every)
    assert names("workloads") == list(WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    result = tiny_run(workload, True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == names("per_layer")
    units = {entry["name"]: entry["unit"] for entry in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert result["metrics"]["trace.unattributed_share"]["value"] <= 0.10


@pytest.mark.parametrize("workload", ["direct_closed", "cryptonets_direct"])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result = tiny_run(workload, False)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == names("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    json.dumps(result)  # the driver reads it as JSON


@pytest.mark.parametrize("workload", ["loop_trace", "cryptonets_direct"])
def test_equal_seeds_give_identical_counts(workload):
    first = tiny_run(workload, True)["metrics"]
    again = tiny_run(workload, True, repeat=1)["metrics"]
    for metric in DETERMINISTIC:
        assert first[metric]["value"] == again[metric]["value"], metric
    assert first["serve.loop.shed"]["value"] == 0


@pytest.mark.parametrize("workload", ["direct_closed", "cryptonets_direct"])
def test_tracing_leaves_results_unchanged(workload):
    outputs = []
    for traced in (False, True):
        deployment = WORKLOADS[workload](SEED)
        try:
            if traced:
                with spans.installed(spans.Recorder()):
                    deployment.operation()
            else:
                deployment.operation()
        finally:
            deployment.close()
        outputs.append(
            (
                deployment.last_logits.tolist(),
                serialize.serialize_ciphertext(deployment.last_result.logits_ct),
            )
        )
    assert outputs[0] == outputs[1]


def test_wrapped_callables_are_the_original_objects_again():
    before = spans.originals()
    recorder = spans.Recorder()
    with spans.installed(recorder):
        wrapped = spans.originals()
        assert all(new is not old for (*_, new), (*_, old) in zip(wrapped, before))
    after = spans.originals()
    assert all(new is old for (*_, new), (*_, old) in zip(after, before))
    assert recorder.names == []


def test_self_times_add_up_to_the_operation():
    recorder = spans.Recorder()
    with recorder.operation(0):
        outer = recorder.begin("a.outer")
        inner = recorder.begin("b.inner")
        recorder.end(inner)
        recorder.end(outer)
    own = recorder.self_seconds()
    assert sum(own) == pytest.approx(recorder.duration(0))
    layers = recorder.layer_totals()
    assert layers["a"]["inclusive_s"] >= layers["b"]["inclusive_s"]
    assert [span["operation"] for span in recorder.spans()] == [0, 0, 0]
