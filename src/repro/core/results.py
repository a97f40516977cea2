"""Result and timing records produced by the inference pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.tracer import Span


@dataclass
class StageTiming:
    """Time spent in one pipeline stage.

    ``real_s`` is measured wall-clock compute; ``overhead_s`` is the modeled
    SGX cost (transitions, marshalling, EPC factor, paging) charged by the
    simulator while the stage ran.
    """

    name: str
    real_s: float
    overhead_s: float = 0.0

    @property
    def elapsed_s(self) -> float:
        return self.real_s + self.overhead_s

    @classmethod
    def from_span(cls, span: Span) -> "StageTiming":
        return cls(span.name, span.real_s, span.overhead_s)


def stages_from_trace(trace: Span) -> list[StageTiming]:
    """Stage timings from a pipeline span's direct ``stage`` children."""
    return [StageTiming.from_span(s) for s in trace.stages()]


@dataclass
class InferenceResult:
    """Outcome of one (batched) privacy-preserving inference.

    Attributes:
        logits: integer scaled logits, shape ``(batch, classes)``.
        stages: per-stage timing breakdown, in execution order.
        scheme: pipeline label ("Encrypted", "EncryptSGX", ...).
        noise_budget_bits: remaining invariant-noise budget of the encrypted
            logits at decryption time (None for plaintext pipelines).
        op_counts: homomorphic operation tallies (C x P, C + C, ...).
        enclave_crossings: number of ECALLs the run needed.
        trace: the run's root span (pipeline -> stage -> ecall), when the
            pipeline traced it; ``stages`` are its direct stage children.
        logits_ct: the encrypted logits prior to decryption (None for
            plaintext pipelines); the differential equivalence harness
            serializes it for byte-level comparisons against the oracle
            context and the recorded hand-written chains.
    """

    logits: np.ndarray
    stages: list[StageTiming] = field(default_factory=list)
    scheme: str = ""
    noise_budget_bits: float | None = None
    op_counts: dict[str, int] = field(default_factory=dict)
    enclave_crossings: int = 0
    trace: Span | None = None
    logits_ct: object | None = None

    @property
    def predictions(self) -> np.ndarray:
        return self.logits.argmax(axis=1)

    @property
    def total_real_s(self) -> float:
        return sum(s.real_s for s in self.stages)

    @property
    def total_overhead_s(self) -> float:
        return sum(s.overhead_s for s in self.stages)

    @property
    def total_elapsed_s(self) -> float:
        return self.total_real_s + self.total_overhead_s

    def stage(self, name: str) -> StageTiming:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"no stage named {name!r}")

    def describe(self) -> str:
        lines = [f"{self.scheme}: {self.total_elapsed_s:.3f}s simulated"]
        for s in self.stages:
            lines.append(
                f"  {s.name}: {s.elapsed_s:.3f}s"
                f" (real {s.real_s:.3f}s + sgx {s.overhead_s:.3f}s)"
            )
        if self.noise_budget_bits is not None:
            lines.append(f"  final noise budget: {self.noise_budget_bits:.1f} bits")
        return "\n".join(lines)
