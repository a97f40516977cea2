"""Lane-packed hybrid inference -- the paper's Section VIII extension.

The paper encodes one value per ciphertext and predicts that packing would
buy "1024 times the throughput".  This module implements that extension for
the hybrid framework on the serving flush's layout: up to ``n`` user images
ride the polynomial coefficients (*lanes*) of each pixel-position
ciphertext (:func:`~repro.he.batching.write_lanes`), so the whole encrypted
CNN costs one ciphertext operation per pixel *position* -- independent of
how many users share the batch.  Every layer multiplies by scalar weights,
which act on all lanes alike, so any plaintext modulus serves.

All lane traffic is still end-to-end encrypted: the enclave reads the lanes
only after decrypting inside trusted code
(:meth:`InferenceEnclave.activation_pool_lanes`).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import EnclavePipeline
from repro.errors import PipelineError
from repro.he.batching import write_lanes
from repro.he.context import Ciphertext
from repro.he.params import EncryptionParams
from repro.nn.quantize import QuantizedCNN
from repro.sgx.enclave import SgxPlatform


class SimdHybridPipeline(EnclavePipeline):
    """Hybrid HE+SGX inference with lane-packed user batches.

    Functionally identical to :class:`~repro.core.hybrid.HybridPipeline` in
    ``batched`` mode -- same partition, same enclave, bit-exact against the
    plaintext reference -- but an entire user batch shares each ciphertext,
    collapsing the per-image cost by up to the ring degree.
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
        super().__init__(quantized, params, platform, seed)

    def encrypt_images(self, images: np.ndarray) -> Ciphertext:
        """User side: image ``b`` in lane ``b`` of one ``(1, C, H, W)`` batch."""
        pixels = self.quantized.quantize_images(images)
        return self.encryptor.encrypt(write_lanes(self.context, pixels))
