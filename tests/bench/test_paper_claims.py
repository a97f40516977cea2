"""The paper-claims runner (``benchmarks/bench_paper.py``) without any HE:
a fake three-row table through the real measure-render-judge loop, and
structural checks tying the real table to DESIGN.md §3, EXPERIMENTS.md and
``benchmarks/results/``."""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from repro.bench import SCALES
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _load_bench_paper():
    path = REPO_ROOT / "benchmarks" / "bench_paper.py"
    spec = importlib.util.spec_from_file_location("bench_paper", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


paper = _load_bench_paper()
SMALL, TINY = SCALES["small"], SCALES["tiny"]


def _raises(rig, scale):
    raise RuntimeError("rig exploded")


def _row(name, claims, measure=lambda rig, scale: {"ratio": 2.0}):
    return paper.Experiment(name, measure, lambda m: f"ratio {m['ratio']}", claims)


FAKE_TABLE = (
    _row("broke", (paper.Claim("ratio > 3", lambda m: m["ratio"] > 3),)),
    _row(
        "fixed",
        (paper.Claim("ratio > 1", lambda m: m["ratio"] > 1, paper.Deviates("was 0.5")),),
    ),
    _row("crashed", (paper.Claim("never judged", lambda m: True),), measure=_raises),
)


class TestRunner:
    def test_each_direction_of_a_flip_is_red_and_a_crash_hides_no_other_row(self):
        broke, fixed, crashed = (paper.evaluate(row, None, SMALL) for row in FAKE_TABLE)
        assert not broke.ok and broke.outcomes[0].status == paper.FAILS
        assert "no longer" in broke.outcomes[0].note
        assert not fixed.ok and fixed.outcomes[0].status == paper.FAILS
        assert "update the record" in fixed.outcomes[0].note
        assert not crashed.ok and crashed.text is None
        assert crashed.outcomes[0].status == paper.FAILS
        assert "RuntimeError: rig exploded" in crashed.error
        assert broke.text == fixed.text == "ratio 2.0"  # measured and rendered all the same

    def test_outcomes_matching_the_record_are_green(self):
        row = _row(
            "steady",
            (
                paper.Claim("ratio > 1", lambda m: m["ratio"] > 1),
                paper.Claim("ratio > 3", lambda m: m["ratio"] > 3, paper.Deviates("substrate")),
            ),
        )
        report = paper.evaluate(row, None, SMALL)
        assert report.ok
        assert [o.status for o in report.outcomes] == [paper.HOLDS, paper.RECORDED]
        assert report.outcomes[1].note == "substrate"

    def test_a_row_without_claims_still_fails_when_it_crashes(self):
        assert not paper.evaluate(_row("bare", (), measure=_raises), None, SMALL).ok
        assert paper.evaluate(_row("bare", ()), None, SMALL).ok

    def test_a_predicate_that_raises_fails_its_claim_only(self):
        row = _row(
            "typo",
            (
                paper.Claim("reads a missing key", lambda m: m["missing"] > 1),
                paper.Claim("ratio > 1", lambda m: m["ratio"] > 1),
            ),
        )
        report = paper.evaluate(row, None, SMALL)
        assert [o.status for o in report.outcomes] == [paper.FAILS, paper.HOLDS]
        assert "KeyError" in report.outcomes[0].note

    def test_shape_claims_are_informational_off_the_recorded_scale_exact_ones_gate(self):
        def flipped(m):
            return m["ratio"] > 3

        shape = paper.evaluate(_row("shape", (paper.Claim("s", flipped),)), None, TINY)
        assert shape.ok and shape.outcomes[0].status == "deviates (informational at tiny)"
        exact = paper.evaluate(_row("exact", (paper.Claim("e", flipped, exact=True),)), None, TINY)
        assert not exact.ok

    def test_publish_writes_the_results_file_and_the_marked_block_from_one_report(self, tmp_path):
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text(
            "intro\n<!-- measured:steady -->\nstale\n<!-- /measured:steady -->\nprose\n"
        )
        claim = paper.Claim("ratio > 1", lambda m: m["ratio"] > 1)
        report = paper.evaluate(_row("steady", (claim,)), None, SMALL)
        paper.publish(report, tmp_path, doc)
        text = (tmp_path / "steady.txt").read_text()
        assert text.startswith("ratio 2.0\n") and "holds" in text and "ratio > 1" in text
        rewritten = doc.read_text()
        assert rewritten.startswith("intro\n") and rewritten.endswith("\nprose\n")
        assert "stale" not in rewritten and "```\nratio 2.0\n```" in rewritten
        assert "| holds | ratio > 1 |  |" in rewritten
        with pytest.raises(ReproError, match="no measured block for other"):
            paper.publish(paper.evaluate(_row("other", ()), None, SMALL), tmp_path, doc)


def _sections(markdown: str) -> dict[str, str]:
    """``## `` heading -> body, preamble dropped."""
    parts = re.split(r"^## (.+)$", markdown, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


class TestRealTable:
    names = [row.name for row in paper.EXPERIMENTS]

    def test_names_are_unique(self):
        assert len(set(self.names)) == len(self.names)

    def test_one_results_file_per_row_and_no_orphan(self):
        files = sorted(p.stem for p in paper.RESULTS_DIR.glob("*.txt"))
        assert files == sorted(self.names)

    def test_every_recorded_deviation_says_why(self):
        deviations = [
            claim
            for row in paper.EXPERIMENTS
            for claim in row.claims
            if claim.expected != paper.HOLDS
        ]
        assert len(deviations) >= 3  # Table V, Fig. 5, Fig. 6 and Fig. 8's saving
        for claim in deviations:
            assert isinstance(claim.expected, paper.Deviates), claim.statement
            assert len(claim.expected.reason.strip()) > 20, claim.statement

    def test_every_design_index_row_names_exactly_one_experiment(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        index = design.split("## 3. Per-experiment index")[1].split("\n## 4.")[0]
        rows = [
            line
            for line in index.splitlines()
            if line.startswith("|") and not line.startswith(("| Exp", "|---"))
        ]
        named = []
        for line in rows:
            hits = [name for name in self.names if f"`{name}`" in line]
            assert len(hits) == 1, line
            named += hits
        assert set(named) == set(self.names)

    def test_every_experiments_section_is_one_row_and_embeds_its_results_file(self):
        sections = _sections(paper.EXPERIMENTS_MD.read_text())
        seen = []
        for title, body in sections.items():
            blocks = re.findall(
                r"<!-- measured:(\w+) -->\n```\n(.*?)\n```\n(.*?)<!-- /measured:\1 -->",
                body,
                flags=re.DOTALL,
            )
            assert len(blocks) == 1, title
            name, numbers, claims = blocks[0]
            seen.append(name)
            # One source: the block's numbers are the results file's, verbatim.
            results = (paper.RESULTS_DIR / f"{name}.txt").read_text()
            assert results.startswith(numbers + "\n"), title
            prose = body.split(f"<!-- /measured:{name} -->")[1]
            # No section says "Holds" where its table says deviates.
            if paper.RECORDED in claims:
                assert "**deviate" in prose and "**Holds" not in prose, title
            assert f"| {paper.FAILS} |" not in claims, title
        assert sorted(seen) == sorted(self.names)
