"""Simulated clock: separates real compute time from modeled SGX overhead.

The simulator *actually executes* trusted code (results are real); what it
models is the extra time SGX hardware would charge -- EPC encryption slowdown,
ECALL/OCALL transitions, paging.  :class:`SimClock` accumulates both real
elapsed seconds and modeled overhead seconds, per category, so benchmarks can
report ``simulated = real + overhead`` and decompose where the time went
(exactly the decomposition the paper's Tables I/IV/V make).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class SimClock:
    """Accumulates real and modeled time, tagged by category."""

    real_s: float = 0.0
    overhead_s: float = 0.0
    by_category: dict[str, float] = field(default_factory=dict)

    @property
    def now_s(self) -> float:
        """Total simulated seconds (real compute + modeled overhead)."""
        return self.real_s + self.overhead_s

    def charge(self, seconds: float, category: str) -> None:
        """Record ``seconds`` of modeled overhead under ``category``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self.overhead_s += seconds
        self.by_category[category] = self.by_category.get(category, 0.0) + seconds

    def elapse_real(self, seconds: float) -> None:
        """Record real (measured) compute seconds."""
        if seconds < 0:
            raise ValueError(f"cannot elapse negative time: {seconds}")
        self.real_s += seconds
        self.by_category["compute"] = self.by_category.get("compute", 0.0) + seconds

    @contextmanager
    def measure_real(self):
        """Context manager timing a real code block into the clock."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.elapse_real(time.perf_counter() - start)

    @contextmanager
    def measure_real_exclusive(self):
        """Like :meth:`measure_real`, but safe to wrap around code that
        already records real time into this clock (e.g. ECALLs).

        Only the wall time *not* elapsed by inner measurements is added, so
        the block's total contribution equals its wall time exactly once.
        This is what lets a pipeline stage account host-side work around
        enclave crossings without double-counting the trusted body.
        """
        start = time.perf_counter()
        real_before = self.real_s
        try:
            yield
        finally:
            inner = self.real_s - real_before
            self.elapse_real(max(0.0, time.perf_counter() - start - inner))

    def snapshot(self) -> dict[str, float]:
        """Copy of the per-category totals (including real compute)."""
        return dict(self.by_category)

    def reset(self) -> None:
        self.real_s = 0.0
        self.overhead_s = 0.0
        self.by_category.clear()
