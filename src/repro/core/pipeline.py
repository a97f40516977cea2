"""The unified pipeline API: one protocol, one factory.

The four inference pipelines (plaintext reference, pure-HE CryptoNets
baseline, hybrid HE+SGX, packed SIMD hybrid at any depth) grew the same surface by convention -- a ``scheme`` label, ``infer(images)``
returning an :class:`~repro.core.results.InferenceResult`, and
``encrypt_images``.  :class:`InferencePipeline` makes that contract explicit
(FHEON-style: a configurable, uniform API is what lets optimizations like the
serving scheduler land once instead of being forked per variant), and
:func:`build_pipeline` is the single entry point that maps a scheme name to a
configured pipeline, auto-sizing FV parameters when none are supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.core.config import parameters_for_pipeline
from repro.core.cryptonets import CryptonetsPipeline
from repro.core.hybrid import HybridPipeline
from repro.core.plaintext import PlaintextPipeline
from repro.core.results import InferenceResult
from repro.core.simd import SimdHybridPipeline
from repro.errors import PipelineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.he.params import EncryptionParams
    from repro.serve.scheduler import ServeConfig


@runtime_checkable
class InferencePipeline(Protocol):
    """What every inference pipeline exposes.

    ``encrypt_images`` is the user-side step (for the plaintext reference it
    degenerates to quantization); ``infer`` runs the full pipeline on raw
    images and reports per-stage timing.  Code written against this protocol
    runs unchanged over any scheme -- see ``examples/quickstart.py``.
    """

    scheme: str

    def infer(self, images: np.ndarray) -> InferenceResult:
        ...

    def encrypt_images(self, images: np.ndarray):
        ...


#: Canonical scheme names (values) and their accepted aliases (keys).
SCHEME_ALIASES = {
    "plaintext": "plaintext",
    "cryptonets": "cryptonets",
    "encrypted": "cryptonets",
    "hybrid": "hybrid",
    "encryptsgx": "hybrid",
    "simd": "simd",
    "encryptsgx-simd": "simd",
}

#: Keyword options each scheme's constructor understands.
_SCHEME_OPTS = {
    "plaintext": {"clock"},
    "cryptonets": {"seed", "clock"},
    "hybrid": {"platform", "mode", "seed"},
    "simd": {"platform", "seed"},
}


def _check_graph_optimizer(value: str | None) -> None:
    """Accept the one value left of the retired ``graph_optimizer`` keyword.

    Every graph runs as built, so ``"off"`` (or ``None``) configures
    nothing; it is still accepted, from a :class:`PipelineSpec` and from
    :func:`build_pipeline` alike, because existing callers pass it.

    Raises:
        PipelineError: any other value.
    """
    if value not in (None, "off"):
        raise PipelineError(
            f"graph_optimizer={value!r}: every graph runs as built, so the "
            "one accepted value is 'off'"
        )


def resolve_scheme(scheme: str) -> str:
    """Normalize a scheme name or alias to its canonical form."""
    canonical = SCHEME_ALIASES.get(scheme.strip().lower())
    if canonical is None:
        raise PipelineError(
            f"unknown pipeline scheme {scheme!r}; expected one of "
            f"{sorted(set(SCHEME_ALIASES))}"
        )
    return canonical


@dataclass(frozen=True)
class PipelineSpec:
    """Declarative description of a pipeline / serving deployment.

    One frozen value captures everything :func:`build_pipeline`,
    ``EdgeServer.from_spec`` and the benchmarks previously spread over
    positional arguments and ad-hoc keywords: the scheme, how to size (or
    which exact) FV parameters, the enclave fleet size, and the serving
    queue bounds.  Being frozen, a spec can sit in a bench baseline or a CLI
    flag table and be reused without aliasing.

    Attributes:
        scheme: canonical name or alias from :data:`SCHEME_ALIASES`
            (normalized at construction).
        params: exact FV parameters; when None they are auto-sized from the
            quantized model at build time.
        poly_degree: degree for auto-sizing (ignored when ``params`` given).
        batching: auto-size a prime plaintext modulus (``batching=True`` of
            :func:`~repro.core.config.parameters_for_pipeline`) instead of a
            power of two.  Images pack under either.
        workers: pool worker processes to install process-wide
            at build time (``repro.he.parallel``); ``1`` forces the
            in-process path, ``None`` leaves the active setting (the
            ``REPRO_WORKERS`` environment default) untouched.  Results are
            byte-identical at any width.
        graph_optimizer: ``None`` or ``"off"``, which configure nothing
            (every graph runs as built); any other value is a
            :class:`PipelineError` at construction.
        fleet_size: enclave replicas for ``EdgeServer.from_spec`` (>= 1).
        max_queue_depth / max_batch: scheduler queue bounds; any
            set value flows into the server's
            :class:`~repro.serve.ServeConfig`.
        options: extra scheme-specific constructor options (``mode``,
            ``platform``, ``seed``, ``clock``), merged under explicit
            keywords passed to :func:`build_pipeline`.
    """

    scheme: str = "hybrid"
    params: "EncryptionParams | None" = None
    poly_degree: int = 1024
    batching: bool = False
    workers: int | None = None
    graph_optimizer: str | None = None
    fleet_size: int = 1
    max_queue_depth: int | None = None
    max_batch: int | None = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", resolve_scheme(self.scheme))
        if self.poly_degree < 2:
            raise PipelineError("poly_degree must be >= 2")
        if self.workers is not None and self.workers < 1:
            raise PipelineError("workers must be >= 1 (or None to inherit)")
        _check_graph_optimizer(self.graph_optimizer)
        if self.fleet_size < 1:
            raise PipelineError("fleet_size must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise PipelineError("max_queue_depth must be >= 1")
        if self.max_batch is not None and self.max_batch < 1:
            raise PipelineError("max_batch must be >= 1")

    def resolve_params(self, quantized=None) -> "EncryptionParams":
        """The spec's exact parameters, or auto-sized ones for ``quantized``."""
        if self.params is not None:
            return self.params
        if quantized is None:
            raise PipelineError(
                "this spec carries no explicit params; pass the quantized "
                "model to size parameters against"
            )
        return parameters_for_pipeline(
            quantized, self.poly_degree, batching=self.batching
        )

    def apply_workers(self) -> None:
        """Install the spec's worker count process-wide (no-op when None)."""
        if self.workers is None:
            return
        from repro.he import parallel

        parallel.configure(self.workers)

    def serve_config(self) -> "ServeConfig | None":
        """A :class:`~repro.serve.ServeConfig` from the spec's queue bounds
        (None when no bound is set, letting server defaults apply)."""
        if self.max_queue_depth is None and self.max_batch is None:
            return None
        from repro.serve.scheduler import ServeConfig

        kwargs: dict[str, Any] = {}
        if self.max_queue_depth is not None:
            kwargs["max_queue_depth"] = self.max_queue_depth
        if self.max_batch is not None:
            kwargs["max_batch"] = self.max_batch
        return ServeConfig(**kwargs)



def build_pipeline(
    scheme: "str | PipelineSpec",
    quantized,
    params: "EncryptionParams | None" = None,
    *,
    poly_degree: int = 1024,
    **opts,
) -> InferencePipeline:
    """Construct a configured pipeline for ``scheme``.

    Args:
        scheme: either a canonical name / alias (case-insensitive) from
            :data:`SCHEME_ALIASES` -- ``plaintext``, ``cryptonets`` /
            ``encrypted``, ``hybrid`` / ``encryptsgx``, ``simd`` -- or a declarative :class:`PipelineSpec`, whose parameters,
            ``batching`` choice and stored ``options`` all apply
            (explicit ``params`` / ``**opts`` here still win).
        quantized: the integer model, a
            :class:`~repro.nn.quantize.QuantizedCNN` (of several blocks for
            ``simd`` and ``plaintext`` only).
        params: FV parameters; when omitted, auto-sized with
            :func:`~repro.core.config.parameters_for_pipeline` at
            ``poly_degree``.
        poly_degree: degree used for auto-sizing (ignored when ``params`` is
            given).
        **opts: scheme-specific options -- ``mode`` (hybrid), ``platform``
            (hybrid/simd), ``seed``, ``clock`` (plaintext/cryptonets)
            -- plus the process-wide knob ``workers``, applied exactly as
            :attr:`PipelineSpec.workers` would be, and ``graph_optimizer``,
            which any scheme takes as ``"off"`` and nothing else.

    Raises:
        PipelineError: unknown scheme, an option the scheme does not take,
            a ``graph_optimizer`` other than ``"off"``, or a model/parameter
            mismatch surfaced by the pipeline itself.
    """
    if isinstance(scheme, PipelineSpec):
        spec = scheme
        spec.apply_workers()
        canonical = spec.scheme
        batching = spec.batching
        poly_degree = spec.poly_degree
        if params is None:
            params = spec.params
        opts = {**spec.options, **opts}
    else:
        canonical = resolve_scheme(scheme)
        batching = False
    _check_graph_optimizer(opts.pop("graph_optimizer", None))
    workers = opts.pop("workers", None)
    if workers is not None:
        # Route the process-wide knob through a throwaway spec so the
        # kwarg form shares PipelineSpec's validation and application.
        PipelineSpec(scheme=canonical, workers=workers).apply_workers()
    allowed = _SCHEME_OPTS[canonical]
    unknown = set(opts) - allowed
    if unknown:
        raise PipelineError(
            f"scheme {canonical!r} does not take option(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    if canonical == "plaintext":
        return PlaintextPipeline(quantized, clock=opts.get("clock"))
    if params is None:
        params = parameters_for_pipeline(quantized, poly_degree, batching=batching)
    if canonical == "cryptonets":
        return CryptonetsPipeline(quantized, params, **opts)
    if canonical == "hybrid":
        return HybridPipeline(quantized, params, **opts)
    return SimdHybridPipeline(quantized, params, **opts)
