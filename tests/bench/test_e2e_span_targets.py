"""Guard for the wall-clock benchmark's traced run.

``benchmarks/e2e/spans.py`` (read-only for feature PRs) wraps a fixed
table of ``(owner, attribute)`` names via ``vars(owner)[attribute]``; a
refactor that moves or drops one of those names makes the traced run die
with a ``KeyError`` long after tier-1 went green.  This test resolves every
target the same way the benchmark does, so the break shows up here.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize(
    "owner,attribute", sorted({(owner, attr) for owner, attr, _ in SPANS.TARGETS})
)
def test_span_target_resolves(owner, attribute):
    target = vars(SPANS._resolve(owner))[attribute]
    assert callable(target) or isinstance(target, (staticmethod, classmethod))


def test_installed_wraps_and_restores_every_target():
    before = SPANS.originals()
    with SPANS.installed(SPANS.Recorder()):
        wrapped = SPANS.originals()
        assert all(b[2] is not w[2] for b, w in zip(before, wrapped))
    assert all(b[2] is a[2] for b, a in zip(before, SPANS.originals()))
