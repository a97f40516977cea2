"""Property test: trace JSON round-trip preserves the full span tree,
including the PR-10 context (``trace_id``/``trace_ids``/``trace_parent``)
and profiler (``node_*``/``noise_budget_bits``) attrs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.obs import (
    SPAN_KINDS,
    Span,
    trace_from_dict,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
)

_trace_ids = st.text(alphabet="0123456789abcdef", min_size=16, max_size=16)

_context_attrs = st.one_of(
    st.fixed_dictionaries({"trace_id": _trace_ids, "trace_parent": st.text(max_size=12)}),
    st.fixed_dictionaries({"trace_ids": st.lists(_trace_ids, max_size=3)}),
    st.just({}),
)

_profile_attrs = st.one_of(
    st.fixed_dictionaries(
        {
            "node_signature": st.text(max_size=24),
            "node_op": st.sampled_from(["conv", "crossing", "fc", "decrypt"]),
            "node_level": st.integers(min_value=0, max_value=4),
            "node_headroom_bits": st.floats(0, 64, allow_nan=False),
        }
    ),
    st.fixed_dictionaries({"noise_budget_bits": st.floats(0, 64, allow_nan=False)}),
    st.just({}),
)

_names = st.sampled_from(["pipe", "conv", "serve/request", "activation_pool"])
_seconds = st.floats(min_value=0, max_value=1e3, allow_nan=False)


@st.composite
def _spans(draw, depth: int = 0) -> Span:
    context = dict(draw(_context_attrs))
    context.update(draw(_profile_attrs))
    children = []
    if depth < 2:
        children = draw(
            st.lists(_spans(depth=depth + 1), max_size=3 if depth == 0 else 2)
        )
    return Span(
        name=draw(_names),
        kind=draw(st.sampled_from(SPAN_KINDS)),
        real_s=draw(_seconds),
        overhead_s=draw(_seconds),
        overhead_by_category=draw(
            st.dictionaries(
                st.sampled_from(["sgx_transition", "sgx_marshalling"]),
                _seconds,
                max_size=2,
            )
        ),
        op_counts=draw(
            st.dictionaries(
                st.sampled_from(["ct_add", "ct_mul"]),
                st.integers(min_value=0, max_value=99),
                max_size=2,
            )
        ),
        crossings=draw(st.integers(min_value=0, max_value=9)),
        attrs=context,
        children=children,
    )


def _equal(a: Span, b: Span) -> bool:
    return (
        a.name == b.name
        and a.kind == b.kind
        and a.real_s == b.real_s
        and a.overhead_s == b.overhead_s
        and a.overhead_by_category == b.overhead_by_category
        and a.op_counts == b.op_counts
        and a.crossings == b.crossings
        and a.attrs == b.attrs
        and len(a.children) == len(b.children)
        and all(_equal(x, y) for x, y in zip(a.children, b.children))
    )


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(_spans())
    def test_json_roundtrip_preserves_tree(self, span):
        assert _equal(trace_from_json(trace_to_json(span)), span)

    @settings(max_examples=60, deadline=None)
    @given(_spans())
    def test_dict_roundtrip_preserves_tree(self, span):
        assert _equal(trace_from_dict(trace_to_dict(span)), span)

    @settings(max_examples=30, deadline=None)
    @given(_spans())
    def test_context_attrs_survive(self, span):
        back = trace_from_json(trace_to_json(span))
        for orig, restored in zip(span.walk(), back.walk()):
            for key in ("trace_id", "trace_ids", "trace_parent",
                        "node_signature", "noise_budget_bits"):
                assert orig.attrs.get(key) == restored.attrs.get(key)


class TestMalformedContext:
    def test_trace_format_error_on_bad_trace_doc(self):
        with pytest.raises(TraceFormatError):
            trace_from_dict({"name": "x", "kind": "nope", "real_s": 0, "overhead_s": 0})
        with pytest.raises(TraceFormatError):
            trace_from_dict({"kind": "span", "real_s": 0, "overhead_s": 0})
