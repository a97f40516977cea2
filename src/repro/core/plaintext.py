"""Plaintext inference pipelines: the accuracy references.

Two references matter for the paper's claims:

* the float model itself (what a non-private edge server would run);
* the *integer* reference -- the quantized model executed in the clear --
  which both encrypted pipelines must match bit-exactly, because FV
  arithmetic is exact integer arithmetic mod ``t``.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import InferenceResult, StageTiming, stages_from_trace
from repro.nn.model import Sequential
from repro.nn.quantize import QuantizedCNN
from repro.obs import Tracer
from repro.sgx.clock import SimClock


class PlaintextPipeline:
    """Quantized-integer inference in the clear.

    This is the ground truth the encrypted pipelines are compared against:
    same quantization, same stage functions, no cryptography.
    """

    scheme = "Plaintext"

    def __init__(self, quantized: QuantizedCNN, clock: SimClock | None = None) -> None:
        self.quantized = quantized
        self.clock = clock if clock is not None else SimClock()
        self.tracer = Tracer(self.clock)

    def encrypt_images(self, images: np.ndarray) -> np.ndarray:
        """Identity "encryption": the reference pipeline computes in the
        clear, so this is just the quantization step.  Present so the class
        satisfies the :class:`~repro.core.pipeline.InferencePipeline`
        protocol and can stand in for an encrypted pipeline in tests."""
        return self.quantized.quantize_images(images)

    def infer(self, images: np.ndarray) -> InferenceResult:
        """Quantize, then each block's conv and activation + pool, then fc:
        one stage each (``conv_i`` / ``activation_pool_i`` for block ``i`` of
        several)."""
        quantized = self.quantized
        with self.tracer.span(
            self.scheme, kind="pipeline", batch=int(images.shape[0])
        ) as trace:
            with self.tracer.stage("quantize"):
                x = quantized.quantize_images(images)

            for i, block in enumerate(quantized.blocks):
                suffix = f"_{i}" if len(quantized.blocks) > 1 else ""
                with self.tracer.stage("conv" + suffix):
                    conv = block.conv_stage(x)
                with self.tracer.stage("activation_pool" + suffix):
                    x = block.activation_pool_stage(conv, quantized.block_input_scale(i))

            with self.tracer.stage("fc"):
                logits = quantized.fc_stage(x)

        return InferenceResult(
            logits=logits,
            stages=stages_from_trace(trace),
            scheme=self.scheme,
            trace=trace,
        )


class FloatPipeline:
    """The unquantized float model, for accuracy headroom comparisons."""

    scheme = "Float"

    def __init__(self, model: Sequential) -> None:
        self.model = model

    def infer(self, images: np.ndarray) -> InferenceResult:
        floats = images.astype(np.float64) / 255.0 if images.dtype == np.uint8 else images
        import time

        start = time.perf_counter()
        logits = self.model.forward(floats)
        elapsed = time.perf_counter() - start
        return InferenceResult(
            logits=logits,
            stages=[StageTiming("forward", elapsed)],
            scheme=self.scheme,
        )
