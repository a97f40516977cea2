"""The paper's contribution: hybrid HE + SGX inference (``EncryptSGX``).

Linear layers (conv, FC) are evaluated homomorphically *outside* the enclave
with the model weights in the untrusted world (Section IV-C); the
non-polynomial activation and pooling are decrypted, computed exactly, and
re-encrypted *inside* the enclave (Section IV-D).  Consequences reproduced
here:

* no square approximation -> accuracy identical to the plaintext quantized
  model (verified bit-exactly by the tests);
* no relinearization keys needed -- the in-enclave refresh resets noise;
* the enclave also plays key authority, so the whole flow runs without a
  trusted third party (Section IV-A; the constructor performs the full
  attested key delivery to the simulated user).

Three execution modes mirror the paper's Fig. 8 schemes:

* ``batched``  -- ``EncryptSGX``: one crossing per feature-map batch;
* ``per_pixel`` -- ``EncryptSGX (single)``: one crossing per feature value,
  the negative control whose transition costs dwarf everything;
* ``fake``     -- ``EncryptFakeSGX``: identical code outside any enclave.
"""

from __future__ import annotations

from repro.core.base import EnclavePipeline
from repro.errors import PipelineError
from repro.he.context import Context
from repro.he.params import EncryptionParams
from repro.nn.quantize import QuantizedCNN
from repro.sgx.enclave import SgxPlatform

MODES = ("batched", "per_pixel", "fake")

_SCHEME_NAMES = {
    "batched": "EncryptSGX",
    "per_pixel": "EncryptSGX(single)",
    "fake": "EncryptFakeSGX",
}


class HybridPipeline(EnclavePipeline):
    """Hybrid privacy-preserving inference on one simulated edge server.

    Args:
        quantized: integer model of one block (the graph refuses more) with
            ``activation="sigmoid"`` (or any activation in
            :data:`repro.core.enclave_service.ACTIVATIONS`).
        params: FV parameters; only one linear layer of noise headroom is
            needed thanks to the enclave refresh.
        platform: the simulated SGX machine (fresh one by default).
        mode: ``batched`` | ``per_pixel`` | ``fake`` (see module docstring).
        seed: reproducible randomness.
        context_type: see :class:`~repro.core.base.EnclavePipeline`.
    """

    graph_kind = "hybrid"

    def __init__(
        self,
        quantized: QuantizedCNN,
        params: EncryptionParams,
        platform: SgxPlatform | None = None,
        mode: str = "batched",
        seed: int | None = None,
        *,
        context_type: type[Context] = Context,
    ) -> None:
        if mode not in MODES:
            raise PipelineError(f"mode must be one of {MODES}, got {mode!r}")
        block = quantized.blocks[0]
        if block.activation == "square":
            raise PipelineError(
                "the hybrid pipeline expects an exact-activation model "
                "(quantize a paper_cnn, not a cryptonets_cnn)"
            )
        if mode == "per_pixel" and (block.activation != "sigmoid" or block.pool != "mean"):
            raise PipelineError(
                "the per-pixel control reproduces the paper's sigmoid + "
                "mean-pool configuration only"
            )
        self.mode = mode
        self.scheme = _SCHEME_NAMES[mode]
        # "fake" runs the same code (and the same recovery path) with no
        # enclave.
        super().__init__(
            quantized, params, platform, seed, trusted=(mode != "fake"),
            context_type=context_type, mode=mode,
        )
        self.span_attrs = {"mode": mode}
