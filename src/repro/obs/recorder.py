"""Bounded flight recorder: the last N structured events before a crash.

Metrics aggregate and traces nest, but neither answers "what exactly
happened, in order, in the seconds before this request died".  The
:class:`FlightRecorder` is a bounded ring buffer of structured events --
admission, flush start/done, fault fires, failovers, worker deaths and
replays -- each with a severity, a monotone sequence number and a
caller-supplied deterministic timestamp (the serving loop's
virtual ``now_s`` or the platform's ``SimClock``; the recorder itself
never reads a wall clock, so chaos tests can pin exact event sequences).

The process-wide accessor mirrors :mod:`repro.obs.metrics`: recording is
**disabled by default** and every hook routes through a shared no-op
recorder, so the disarmed hot path costs one ``is None`` check and the
bit-identity contract (logits, ciphertext bytes, RNG draws) is untouched
either way.  Enable with :func:`enable`, :func:`use_recorder`, the
``REPRO_FLIGHT_RECORDER=1`` environment variable, or
``python -m repro --flight-dump``.

On terminal errors (``RecoveryExhausted``, bench-invariant violations)
instrumented sites call :func:`terminal`, which records an ``error``
event and -- when the recorder was built with ``dump_on_error=True`` --
writes the ordered JSON dump to stderr so the post-mortem ships with the
traceback.
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Event severities, least to most severe.
SEVERITIES = ("debug", "info", "warn", "error")

#: Default ring capacity (events retained).
DEFAULT_CAPACITY = 512


@dataclass(frozen=True)
class FlightEvent:
    """One recorded event: what happened, when, and how bad it was."""

    seq: int
    t_s: float | None
    severity: str
    kind: str
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = {"seq": self.seq, "t_s": self.t_s, "severity": self.severity,
               "kind": self.kind}
        doc.update(self.fields)
        return doc


class FlightRecorder:
    """Bounded ring of :class:`FlightEvent`, ordered by monotone ``seq``.

    Args:
        capacity: events retained (oldest dropped first).
        dump_on_error: write the full dump to stderr when
            :meth:`terminal` fires (the ``--flight-dump`` CLI and the
            supervisor's ``RecoveryExhausted`` path use this).
    """

    enabled = True

    def __init__(
        self, capacity: int = DEFAULT_CAPACITY, *, dump_on_error: bool = False
    ) -> None:
        if capacity < 1:
            raise ReproError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.dump_on_error = dump_on_error
        self._events: deque[FlightEvent] = deque(maxlen=capacity)
        self._seq = 0

    def record(
        self, kind: str, *, severity: str = "info", t_s: float | None = None, **fields
    ) -> FlightEvent:
        """Append one event; ``t_s`` is the caller's deterministic clock."""
        if severity not in SEVERITIES:
            raise ReproError(
                f"unknown severity {severity!r}; expected one of {SEVERITIES}"
            )
        self._seq += 1
        event = FlightEvent(
            seq=self._seq,
            t_s=None if t_s is None else float(t_s),
            severity=severity,
            kind=str(kind),
            fields=fields,
        )
        self._events.append(event)
        return event

    def terminal(
        self, kind: str, *, t_s: float | None = None, stream=None, **fields
    ) -> FlightEvent:
        """Record a terminal ``error`` event and (optionally) dump.

        Called at unrecoverable points -- ``RecoveryExhausted``, bench
        invariant violations -- so the last-N context rides along with
        the raised error.
        """
        event = self.record(kind, severity="error", t_s=t_s, **fields)
        if self.dump_on_error:
            out = stream if stream is not None else sys.stderr
            out.write(f"=== flight recorder dump ({kind}) ===\n")
            out.write(self.dump_json() + "\n")
        return event

    def events(self) -> list[FlightEvent]:
        """Retained events, oldest first (``seq`` strictly increasing)."""
        return list(self._events)

    def kinds(self) -> list[str]:
        """Just the event kinds, in order -- what chaos tests pin."""
        return [e.kind for e in self._events]

    def dump(self) -> list[dict]:
        """JSON-ready ordered event list."""
        return [e.to_dict() for e in self._events]

    def dump_json(self) -> str:
        """The dump as pretty-printed JSON text."""
        return json.dumps(self.dump(), indent=2, default=str)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)


class _NullRecorder:
    """Shared no-op standing in when recording is disabled."""

    enabled = False
    dump_on_error = False
    capacity = 0

    def record(self, kind, *, severity="info", t_s=None, **fields):
        return None

    def terminal(self, kind, *, t_s=None, stream=None, **fields):
        return None

    def events(self):
        return []

    def kinds(self):
        return []

    def dump(self):
        return []

    def dump_json(self):
        return "[]"

    def clear(self):
        return None

    def __len__(self):
        return 0


_NULL = _NullRecorder()
_recorder: FlightRecorder | None = None


def recorder() -> FlightRecorder | _NullRecorder:
    """The process-wide recorder (a shared no-op when disabled)."""
    return _recorder if _recorder is not None else _NULL


def set_recorder(rec: FlightRecorder | None) -> FlightRecorder | None:
    """Install ``rec`` process-wide (None disables); returns the previous."""
    global _recorder
    previous = _recorder
    _recorder = rec
    return previous


def enable(
    capacity: int = DEFAULT_CAPACITY, *, dump_on_error: bool = False
) -> FlightRecorder:
    """Install and return a fresh enabled recorder."""
    rec = FlightRecorder(capacity, dump_on_error=dump_on_error)
    set_recorder(rec)
    return rec


def disable() -> FlightRecorder | None:
    """Disable recording; returns the recorder that was installed."""
    return set_recorder(None)


@contextmanager
def use_recorder(rec: FlightRecorder | None = None):
    """Install ``rec`` (default: a fresh recorder) for the block."""
    if rec is None:
        rec = FlightRecorder()
    previous = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)


def record(kind: str, *, severity: str = "info", t_s: float | None = None, **fields):
    """Record on the process-wide recorder (no-op when disabled)."""
    return recorder().record(kind, severity=severity, t_s=t_s, **fields)


def terminal(kind: str, *, t_s: float | None = None, stream=None, **fields):
    """Terminal-error record + optional dump on the process recorder."""
    return recorder().terminal(kind, t_s=t_s, stream=stream, **fields)


if os.environ.get("REPRO_FLIGHT_RECORDER", "").lower() in ("1", "on", "true", "yes"):
    enable()


__all__ = [
    "DEFAULT_CAPACITY",
    "SEVERITIES",
    "FlightEvent",
    "FlightRecorder",
    "disable",
    "enable",
    "record",
    "recorder",
    "set_recorder",
    "terminal",
    "use_recorder",
]
