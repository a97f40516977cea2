"""Adversary-observable trace of enclave behaviour.

SGX does not hide *when* an enclave is entered, *how many bytes* cross the
boundary, or *which pages* fault -- a compromised OS sees all of it (the
paper's Section III-B).  The simulator records exactly that trace so tests
can assert the hybrid pipeline's defining privacy property: the observable
trace is a function of public shapes only, never of plaintext values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ObservedEvent:
    """One event as seen from outside the enclave."""

    kind: str  # "ecall" | "ocall" | "page_fault" | "create" | "report"
    name: str  # function name / region label ("" when not applicable)
    bytes_in: int = 0
    bytes_out: int = 0

    def signature(self) -> tuple[str, str, int, int]:
        """Hashable form used to compare traces across runs."""
        return (self.kind, self.name, self.bytes_in, self.bytes_out)


@dataclass
class SideChannelLog:
    """Append-only event log the untrusted host can read.

    Every traced span reads :meth:`count` on entry and exit, so it is kept
    per kind as events arrive rather than recounted over a log that grows
    with every request.
    """

    events: list[ObservedEvent] = field(default_factory=list)
    _counts: Counter = field(default_factory=Counter, repr=False, compare=False)

    def record(self, kind: str, name: str = "", bytes_in: int = 0, bytes_out: int = 0) -> None:
        self.events.append(
            ObservedEvent(kind=kind, name=name, bytes_in=bytes_in, bytes_out=bytes_out)
        )
        self._counts[kind] += 1

    def count(self, kind: str) -> int:
        return self._counts[kind]

    def total_bytes_crossed(self) -> int:
        return sum(e.bytes_in + e.bytes_out for e in self.events)

    def trace_signature(self) -> tuple[tuple[str, str, int, int], ...]:
        """The full trace as a comparable tuple.

        Two runs that differ only in *plaintext values* must produce equal
        signatures, otherwise the enclave leaks through this channel.
        """
        return tuple(e.signature() for e in self.events)

    def reset(self) -> None:
        self.events.clear()
        self._counts.clear()
