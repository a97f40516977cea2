"""Deep hybrid inference: the framework past the paper's single block.

The paper's Section VIII concedes that building large networks under pure
HE is "challenging" -- every extra multiplication level inflates the
coefficient modulus and the runtime.  The hybrid framework does not have
that problem: the enclave re-encrypts at every activation, so homomorphic
noise never accumulates across blocks and *one* modest parameter set serves
any depth.  :class:`DeepHybridPipeline` demonstrates it by running
multi-block CNNs (see :mod:`repro.nn.deep`) block by block:

    HE conv (outside) -> enclave activation+pool -> HE conv -> ... -> HE FC

The ``ablation_depth`` row of ``benchmarks/bench_paper.py`` quantifies the
asymmetry against a hypothetical pure-HE evaluation of the same depth.
"""

from __future__ import annotations

from repro.core import heops
from repro.core.base import EnclavePipeline
from repro.he.params import EncryptionParams
from repro.nn.deep import DeepQuantizedCNN
from repro.sgx.enclave import SgxPlatform


class DeepHybridPipeline(EnclavePipeline):
    """Hybrid HE+SGX inference over multi-block quantized CNNs.

    Args:
        quantized: a :class:`~repro.nn.deep.DeepQuantizedCNN`.
        params: FV parameters sized for ONE linear layer (depth-independent).
        platform: simulated SGX machine.
        seed: reproducible randomness.
    """

    scheme = "DeepEncryptSGX"
    graph_kind = "deep"

    def __init__(
        self,
        quantized: DeepQuantizedCNN,
        params: EncryptionParams,
        platform: SgxPlatform | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(quantized, params, platform, seed)
        self.span_attrs = {"blocks": len(quantized.blocks)}

    def _encode_weights(self) -> dict:
        weights = {
            f"conv_{i}": heops.encode_conv_weights(
                self.evaluator, self.encoder, block.weight, block.bias, block.stride
            )
            for i, block in enumerate(self.quantized.blocks)
        }
        weights["fc"] = heops.encode_dense_weights(
            self.evaluator,
            self.encoder,
            self.quantized.dense_weight,
            self.quantized.dense_bias,
        )
        return weights


def pure_he_modulus_bits_for_depth(
    depth: int, plain_bits: float, poly_degree: int, margin_bits: float = 8.0
) -> float:
    """Estimate the log2(q) a *pure-HE* evaluation of ``depth`` multiplicative
    levels would need (no enclave refresh, CryptoNets-style squares).

    Uses the :class:`~repro.he.noise.NoiseEstimator` cost model: each level
    costs about ``log2(t) + log2(n) + c`` bits of budget.  The deep hybrid
    never needs more than one level -- this function is the analytic half of
    the depth ablation.
    """
    import math

    fresh_overhead = plain_bits + math.log2(2 * 6.0 * 3.2 * (2 * poly_degree + 1))
    per_level = plain_bits + math.log2(poly_degree) + 3.0
    return fresh_overhead + depth * per_level + margin_bits
