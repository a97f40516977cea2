"""Deterministic trace-context propagation across the serving plane.

A :class:`TraceContext` names one request's place in a process-wide trace
tree: a ``trace_id`` derived deterministically from the issuing client's
session entropy and per-client request counter (no wall clock, no global
randomness -- the same workload always produces the same ids), plus the
``parent_id`` of the span that issued it.  The context rides on
:class:`repro.serve.api.InferenceRequest` / ``InferenceResult``, is
injected by :class:`repro.client.AttestedClient`, threaded through the
serving loop, fleet routing, batch failover and ECALL boundaries -- so
every span in a trace can be attributed to the request, replica and
generation that produced it.

Propagation rules (DESIGN.md §17):

* Per-request spans (``serve/request``, direct ``infer`` pipelines) carry
  ``attrs["trace_id"]`` / ``attrs["trace_parent"]``.
* Shared spans (a packed flush pipeline serving several requests) carry
  ``attrs["trace_ids"]`` -- the ordered list of member trace ids.
* Every other span *inherits* its nearest annotated ancestor, so the
  whole tree resolves without stamping every leaf
  (:func:`resolve_trace_ids` / :func:`spans_without_context`).

The active-context stack (:func:`activate` / :func:`current`) is how
layers that never see the request object (``EnclaveHandle.ecall``) pick
up the ambient contexts.  With nothing active the stack is empty and every
hook is a cheap no-op -- context propagation adds attrs only and never
touches ciphertext bytes, RNG draws or dispatch order.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from repro.errors import TraceFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Span

#: Length (hex chars) of a derived trace id.
TRACE_ID_HEX = 16

_HEX = frozenset("0123456789abcdef")


def derive_trace_id(seed: bytes | str | int, counter: int) -> str:
    """Deterministic trace id from a request seed and a counter.

    The seed is whatever uniquely names the issuer (the attested client's
    session entropy, a loop's model name); the counter is the issuer's
    monotone request number.  SHA-256 keeps ids stable across processes.
    """
    if isinstance(seed, str):
        seed = seed.encode("utf-8")
    elif isinstance(seed, int):
        seed = str(seed).encode("ascii")
    digest = hashlib.sha256(seed + b":" + str(int(counter)).encode("ascii"))
    return digest.hexdigest()[:TRACE_ID_HEX]


@dataclass(frozen=True)
class TraceContext:
    """One request's identity in the process-wide trace tree.

    Attributes:
        trace_id: deterministic hex id (:func:`derive_trace_id`).
        parent_id: name of the span that issued this context (the
            client-side request span, or the layer that last re-parented
            it via :meth:`child`).
    """

    trace_id: str
    parent_id: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.trace_id, str) or not self.trace_id:
            raise TraceFormatError("TraceContext.trace_id must be a non-empty string")
        if len(self.trace_id) != TRACE_ID_HEX or not _HEX.issuperset(self.trace_id):
            raise TraceFormatError(
                f"TraceContext.trace_id must be {TRACE_ID_HEX} lowercase hex "
                f"chars, got {self.trace_id!r}"
            )
        if not isinstance(self.parent_id, str):
            raise TraceFormatError("TraceContext.parent_id must be a string")

    @classmethod
    def derive(
        cls, seed: bytes | str | int, counter: int, parent_id: str | None = None
    ) -> "TraceContext":
        """Context for the ``counter``-th request issued under ``seed``."""
        if parent_id is None:
            parent_id = f"client/request-{int(counter)}"
        return cls(trace_id=derive_trace_id(seed, counter), parent_id=parent_id)

    def child(self, parent_id: str) -> "TraceContext":
        """Same trace, re-parented under ``parent_id`` (a span name)."""
        return replace(self, parent_id=parent_id)


# ----------------------------------------------------------------------
# ambient context stack
# ----------------------------------------------------------------------
_STACK: list[tuple[TraceContext, ...]] = []


@contextmanager
def activate(*contexts: "TraceContext | None"):
    """Make ``contexts`` ambient for the block (``None`` entries dropped).

    A packed flush activates every member request's context at once;
    ECALL spans opened inside pick them up via :func:`current`.  With no
    non-None context the block is a no-op.
    """
    group = tuple(c for c in contexts if c is not None)
    if not group:
        yield ()
        return
    _STACK.append(group)
    try:
        yield group
    finally:
        _STACK.pop()


def current() -> tuple[TraceContext, ...]:
    """The innermost active context group (empty tuple when none)."""
    return _STACK[-1] if _STACK else ()


def current_trace_ids() -> tuple[str, ...]:
    """Trace ids of the innermost active group, in activation order."""
    return tuple(c.trace_id for c in current())


def stamp(attrs: dict) -> None:
    """Stamp the active context group onto a span's ``attrs`` in place.

    One active context -> ``trace_id`` / ``trace_parent``; several (a
    shared span) -> ``trace_ids``.  No active context -> no-op, so
    stamping is safe on every span-open site.
    """
    group = current()
    if not group:
        return
    if len(group) == 1:
        attrs["trace_id"] = group[0].trace_id
        if group[0].parent_id:
            attrs["trace_parent"] = group[0].parent_id
    else:
        attrs["trace_ids"] = [c.trace_id for c in group]


# ----------------------------------------------------------------------
# span-tree resolution
# ----------------------------------------------------------------------
def _own_ids(span: "Span") -> tuple[str, ...]:
    one = span.attrs.get("trace_id")
    many = span.attrs.get("trace_ids")
    if one is not None:
        return (str(one),)
    if many:
        return tuple(str(t) for t in many)
    return ()


def resolve_trace_ids(root: "Span") -> Iterator[tuple["Span", tuple[str, ...]]]:
    """Yield ``(span, trace_ids)`` for the whole tree, with inheritance.

    A span's ids are its own ``trace_id``/``trace_ids`` attrs if present,
    else its nearest annotated ancestor's.  Spans with no annotated
    ancestor yield ``()``.
    """

    def walk(span: "Span", inherited: tuple[str, ...]):
        ids = _own_ids(span) or inherited
        yield span, ids
        for child in span.children:
            yield from walk(child, ids)

    yield from walk(root, ())


def spans_without_context(root: "Span") -> list["Span"]:
    """Spans that neither carry nor inherit a trace id (CI asserts empty
    for every serving trace)."""
    return [span for span, ids in resolve_trace_ids(root) if not ids]


__all__ = [
    "TRACE_ID_HEX",
    "TraceContext",
    "activate",
    "current",
    "current_trace_ids",
    "derive_trace_id",
    "resolve_trace_ids",
    "spans_without_context",
    "stamp",
]
