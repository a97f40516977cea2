"""Packed hybrid inference -- the paper's Section VIII extension.

The paper encodes one value per ciphertext and predicts that packing would
buy up to ``n`` times the throughput.  This module realises that extension
in-process on the one packed layout the repository has: the serving flush's.
The user encrypts each image in the served request format, one image per
polynomial (:func:`~repro.he.batching.write_image`); the host folds ``P = n
// (H*W)`` images into each ciphertext, so conv costs one
plaintext-polynomial product per (filter, channel) per ``P`` images; and one
enclave crossing per block activates, pools and re-encrypts.  The last
block's crossing also computes fc and writes one result per image, class
``c`` in coefficient ``c``; an inner block's writes its pooled maps as the
next block's images, already folded.  The graph's nodes between the user's
encrypt and decrypt are the ``packed`` graph's
(:func:`~repro.graph.ir.build_simd_graph`), one conv and one crossing per
block of the :class:`~repro.nn.quantize.QuantizedCNN`, at any depth: the
refresh keeps the noise one linear layer deep however many blocks there
are.

All traffic is still end-to-end encrypted: the enclave reads the packed
images only after decrypting inside trusted code
(:meth:`InferenceEnclave.activation_pool`).
"""

from __future__ import annotations

import numpy as np

from repro.core import heops
from repro.core.base import EnclavePipeline
from repro.errors import PipelineError
from repro.he.batching import write_image
from repro.he.context import Ciphertext
from repro.he.params import EncryptionParams
from repro.nn.quantize import QuantizedCNN
from repro.sgx.enclave import SgxPlatform


class SimdHybridPipeline(EnclavePipeline):
    """Hybrid HE+SGX inference with packed user batches.

    Functionally identical to :class:`~repro.core.hybrid.HybridPipeline` in
    ``batched`` mode -- same enclave, bit-exact against the plaintext
    reference -- but ``n // (H*W)`` images share each ciphertext, and fc
    runs inside the last crossing, as on the serving paths.

    Raises:
        ParameterError: an image of the model does not fit the ring.
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
        if any(block.activation == "square" for block in quantized.blocks):
            raise PipelineError("the SIMD hybrid serves exact-activation models only")
        super().__init__(quantized, params, platform, seed)

    def _encode_weights(self) -> dict:
        """As ``EdgeServer.provision_model`` encodes them."""
        return heops.encode_served_weights(self.evaluator, self.quantized, self.graph)

    def encrypt_images(self, images: np.ndarray) -> Ciphertext:
        """User side: the served request format, ``(B, C)`` ciphertexts."""
        pixels = self.quantized.quantize_images(images)
        return self.encryptor.encrypt(write_image(self.context, pixels))
