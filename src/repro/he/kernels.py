"""Hot-path kernel selection for the HE substrate.

The library carries two implementations of its hottest code paths:

* **reference** -- the original, per-prime / per-tap formulation:
  :class:`~repro.he.ntt.NttPlan` looped over RNS primes, full ``%`` after
  every butterfly, one ``multiply_plain`` + ``add`` per convolution tap,
  the object-array CRT decrypt, the Python-int ciphertext tensor product.
  Simple, single-prime, authoritative.
* **fused** -- the vectorized kernel layer: the prime-stacked NTT as exact
  float64 matrix products, lazy (deferred) modular reduction, tap-batched
  conv/dense layer kernels, the int64 Garner/constant-coefficient decrypt
  shortcut, and the int64 RNS ciphertext multiply / relinearize.

Both produce **bit-identical** ciphertexts and plaintexts -- every fused
kernel is an exact algebraic rewrite mod each prime, not an approximation --
so the profile only selects *how* the same values are computed.  The
regression tests and ``benchmarks/bench_hotpath_kernels.py`` hold the two
paths against each other at the ``Ciphertext.data`` level.

The active profile is consulted at call time (module-global, cheap attribute
reads), which lets the benchmark record the pre-change baseline and the
fused path in one process::

    from repro.he import kernels

    with kernels.reference_kernels():
        baseline = pipeline.infer(images)      # original code path
    fused = pipeline.infer(images)             # default: fused kernels
    assert (baseline.logits == fused.logits).all()
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class KernelProfile:
    """Which hot-path implementations are active.

    Attributes:
        stacked_ntt: route ``PolyContext.ntt/intt`` through the prime-stacked
            :class:`~repro.he.ntt.StackedNttPlan` (the four-step GEMM
            transform over all ``k`` residues) instead of ``k`` per-prime
            ``NttPlan`` butterfly passes.
        lazy_reduction: use conditional-subtract / deferred reduction in
            ``PolyContext.add``/``sub`` instead of a full ``%`` pass.
        fused_layers: use the tap-batched conv/dense/pool kernels in
            :mod:`repro.core.heops` instead of the per-tap Python loops, and
            the int64 RNS kernels of ``Evaluator.multiply`` / ``relinearize``
            instead of the Python-int tensor product and digit lift.
        fast_decrypt: use the int64 Garner CRT lift and the O(n)
            constant-coefficient decrypt shortcut where applicable.
    """

    stacked_ntt: bool = True
    lazy_reduction: bool = True
    fused_layers: bool = True
    fast_decrypt: bool = True

    @property
    def mode_name(self) -> str:
        flags = (
            self.stacked_ntt,
            self.lazy_reduction,
            self.fused_layers,
            self.fast_decrypt,
        )
        if all(flags):
            return "fused"
        if not any(flags):
            return "reference"
        return "custom"


#: The fully fused profile (library default).
FUSED = KernelProfile()

#: The original pre-kernel-layer code path, kept as the authoritative
#: reference implementation.
REFERENCE = KernelProfile(
    stacked_ntt=False,
    lazy_reduction=False,
    fused_layers=False,
    fast_decrypt=False,
)

_active: KernelProfile = FUSED


def active() -> KernelProfile:
    """The profile hot paths consult at call time."""
    return _active


def record_active_profile() -> None:
    """Publish the active profile as a one-hot gauge family.

    ``repro_he_kernel_profile{mode=...}`` is 1 for the active mode and 0
    for the others, so dashboards can plot FUSED -> REFERENCE degradations
    as a step change.
    """
    from repro.obs import metrics

    gauge = metrics.family("repro_he_kernel_profile")
    for mode in ("fused", "reference", "custom"):
        gauge.labels(mode=mode).set(1.0 if mode == _active.mode_name else 0.0)


def configure(profile: KernelProfile) -> KernelProfile:
    """Install ``profile`` globally; returns the previously active one."""
    global _active
    previous = _active
    _active = profile
    record_active_profile()
    return previous


@contextmanager
def use(profile: KernelProfile):
    """Temporarily run under ``profile`` (restores the prior one on exit)."""
    previous = configure(profile)
    try:
        yield profile
    finally:
        configure(previous)


def guard(stage: str) -> None:
    """Runtime equivalence guard for the fused profile.

    Real deployments cross-check fused kernels against the reference path on
    sampled inputs; here the check itself is exact by construction, so the
    only way it trips is through an armed fault plan (site
    ``he.kernels.guard``).  Pipelines call this at the top of an inference
    under the FUSED profile and respond to :class:`KernelGuardError` by
    degrading to REFERENCE and retrying -- graceful degradation instead of
    serving a (hypothetically) wrong answer.
    """
    from repro import faults
    from repro.errors import KernelGuardError

    if not faults.is_armed() or not _active.fused_layers:
        return
    faults.inject("he.kernels.guard", KernelGuardError, name=stage)


def degrade_to_reference() -> KernelProfile:
    """Permanently fall back to the reference profile (returns the prior
    one).  Used by the recovery path after :func:`guard` trips."""
    return configure(REFERENCE)


def reference_kernels():
    """Context manager selecting the original per-prime/per-tap code path."""
    return use(REFERENCE)


def fused_kernels():
    """Context manager selecting the vectorized kernel layer (the default)."""
    return use(FUSED)
