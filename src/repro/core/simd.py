"""SIMD-packed hybrid inference -- the paper's Section VIII extension.

The paper encodes one value per ciphertext and predicts that CRT batching
would buy "1024 times the throughput".  This module implements that
extension for the hybrid framework: up to ``n`` user images ride in the
CRT *slots* of each pixel-position ciphertext, so the whole encrypted CNN
costs one ciphertext operation per pixel *position* -- independent of how
many users share the batch.

Requires a batching-capable plaintext modulus (prime ``t ≡ 1 mod 2n``);
use ``parameters_for_pipeline(..., batching=True)``.

All slot traffic is still end-to-end encrypted: the enclave decodes the
slot packing only after decrypting inside trusted code
(:meth:`InferenceEnclave.activation_pool_simd`).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import EnclavePipeline
from repro.errors import PipelineError
from repro.he.batching import BatchEncoder
from repro.he.context import Ciphertext, Context
from repro.he.params import EncryptionParams
from repro.nn.quantize import QuantizedCNN
from repro.sgx.enclave import SgxPlatform


class SlotCodec:
    """Packs an image batch into CRT slots, one ciphertext per pixel position.

    Layout: a tensor of integers with shape ``(B, C, H, W)`` becomes a
    plaintext batch of shape ``(1, C, H, W)`` whose slot ``b`` carries image
    ``b``'s value at that position.
    """

    def __init__(self, context: Context) -> None:
        self.encoder = BatchEncoder(context)

    @property
    def slot_count(self) -> int:
        return self.encoder.slot_count

    def encode(self, values: np.ndarray):
        if values.ndim != 4:
            raise PipelineError("SlotCodec expects (B, C, H, W) integer values")
        if values.shape[0] > self.slot_count:
            raise PipelineError(
                f"batch of {values.shape[0]} exceeds the {self.slot_count} "
                "available slots"
            )
        return self.encoder.encode_batch_axis(values)

    def decode(self, plain, batch: int) -> np.ndarray:
        return self.encoder.decode_batch_axis(plain, batch)


class SimdHybridPipeline(EnclavePipeline):
    """Hybrid HE+SGX inference with slot-packed user batches.

    Functionally identical to :class:`~repro.core.hybrid.HybridPipeline` in
    ``batched`` mode -- same partition, same enclave, bit-exact against the
    plaintext reference -- but an entire user batch shares each ciphertext,
    collapsing the per-image cost by up to the slot count.
    """

    scheme = "EncryptSGX-SIMD"
    graph_kind = "simd"

    def __init__(
        self,
        quantized: QuantizedCNN,
        params: EncryptionParams,
        platform: SgxPlatform | None = None,
        seed: int | None = None,
    ) -> None:
        if quantized.activation == "square":
            raise PipelineError("the SIMD hybrid serves exact-activation models only")
        if not params.supports_batching():
            raise PipelineError(
                "SIMD packing needs a batching plaintext modulus; build the "
                "parameters with parameters_for_pipeline(..., batching=True)"
            )
        super().__init__(quantized, params, platform, seed)
        self.codec = SlotCodec(self.context)
        self.resources.codec = self.codec
        self.span_attrs = {"slot_count": self.slot_count}

    @property
    def slot_count(self) -> int:
        return self.codec.slot_count

    def encrypt_images(self, images: np.ndarray) -> Ciphertext:
        pixels = self.quantized.quantize_images(images)
        return self.encryptor.encrypt(self.codec.encode(pixels))
