"""Deep hybrid inference: the framework past the paper's single block.

The paper's Section VIII concedes that building large networks under pure
HE is "challenging" -- every extra multiplication level inflates the
coefficient modulus and the runtime.  The hybrid framework does not have
that problem: the enclave re-encrypts at every activation, so homomorphic
noise never accumulates across blocks and *one* modest parameter set serves
any depth.  :class:`DeepHybridPipeline` demonstrates it by running
multi-block CNNs (see :mod:`repro.nn.deep`) on the SIMD pipeline's image
chain, one block after another:

    fold -> HE conv_0 (outside) -> enclave activation+pool -> HE conv_1 ->
    ... -> enclave activation+pool+fc

Each inner crossing re-encrypts its pooled maps as the next block's images,
``n // (H*W)`` per ciphertext, so only the first block folds on the host;
the last computes fc and writes the result format.  The ``ablation_depth``
row of ``benchmarks/bench_paper.py`` quantifies the asymmetry against a
hypothetical pure-HE evaluation of the same depth.
"""

from __future__ import annotations

from repro.core.simd import SimdHybridPipeline
from repro.he.params import EncryptionParams
from repro.nn.deep import DeepQuantizedCNN
from repro.sgx.enclave import SgxPlatform


class DeepHybridPipeline(SimdHybridPipeline):
    """Hybrid HE+SGX inference over multi-block quantized CNNs: a SIMD graph
    with one conv and one enclave crossing per block.

    Args:
        quantized: a :class:`~repro.nn.deep.DeepQuantizedCNN`.
        params: FV parameters sized for ONE linear layer (depth-independent);
            an image of the model must fit ``n`` coefficients.
        platform: simulated SGX machine.
        seed: reproducible randomness.
    """

    scheme = "DeepEncryptSGX"

    def __init__(
        self,
        quantized: DeepQuantizedCNN,
        params: EncryptionParams,
        platform: SgxPlatform | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(quantized, params, platform, seed)
        self.span_attrs = {"blocks": len(quantized.blocks)}


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
