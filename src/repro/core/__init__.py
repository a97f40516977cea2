"""The paper's contribution: privacy-preserving CNN inference pipelines.

Public surface:

* :class:`PlaintextPipeline` / :class:`FloatPipeline` -- accuracy references.
* :class:`CryptonetsPipeline` -- the pure-HE ``Encrypted`` baseline.
* :class:`HybridPipeline` -- the hybrid HE+SGX framework
  (``EncryptSGX`` / ``EncryptSGX(single)`` / ``EncryptFakeSGX`` modes).
* :class:`InferenceEnclave` -- the trusted co-processor + key authority.
* Key distribution: :class:`TrustedThirdParty` (Fig. 1 baseline) vs the
  attested flow (:func:`establish_user_keys`, :class:`UserClient`).
* :class:`PoolingPlacementPolicy` (Fig. 6 crossover) and the Table V noise
  refresh routes (:func:`relinearize_refresh`, :func:`sgx_refresh`).
* :func:`parameters_for_pipeline` / :func:`train_paper_models` -- sizing and
  model factories.
* The unified pipeline API: :class:`InferencePipeline` (the protocol every
  pipeline satisfies) and :func:`build_pipeline` (scheme-name factory).
"""

from repro.core.config import (
    TrainedModels,
    parameters_for_pipeline,
    pure_he_modulus_bits_for_depth,
    train_paper_models,
)
from repro.core.cryptonets import CryptonetsPipeline
from repro.core.enclave_service import ACTIVATIONS, InferenceEnclave
from repro.core.heops import (
    EncodedConvWeights,
    EncodedDenseWeights,
    EncodedModel,
    encode_conv_weights,
    encode_dense_weights,
    encode_model_weights,
    he_conv2d,
    he_dense,
    he_scaled_mean_pool,
    he_square,
)
from repro.core.hybrid import MODES, HybridPipeline
from repro.core.keyflow import (
    DeliveredKeys,
    SgxKeyDistribution,
    TrustedThirdParty,
    UserClient,
    establish_user_keys,
)
from repro.core.pipeline import (
    SCHEME_ALIASES,
    InferencePipeline,
    PipelineSpec,
    build_pipeline,
    resolve_scheme,
)
from repro.core.placement import (
    MeasuredChoice,
    PoolingPlacementPolicy,
    PoolStrategy,
    measure_placement,
    pool_with_strategy,
)
from repro.core.plaintext import FloatPipeline, PlaintextPipeline
from repro.core.refresh import (
    RefreshOutcome,
    relinearize_refresh,
    sgx_refresh,
    sgx_refresh_one_by_one,
)
from repro.core.results import InferenceResult, StageTiming, stages_from_trace
from repro.core.server import EdgeServer, ServedResult, UserSession
from repro.core.simd import SimdHybridPipeline

__all__ = [
    "ACTIVATIONS",
    "CryptonetsPipeline",
    "DeliveredKeys",
    "EdgeServer",
    "EncodedConvWeights",
    "EncodedDenseWeights",
    "EncodedModel",
    "FloatPipeline",
    "HybridPipeline",
    "InferenceEnclave",
    "InferencePipeline",
    "InferenceResult",
    "MODES",
    "PipelineSpec",
    "SCHEME_ALIASES",
    "MeasuredChoice",
    "PlaintextPipeline",
    "PoolStrategy",
    "PoolingPlacementPolicy",
    "RefreshOutcome",
    "ServedResult",
    "SgxKeyDistribution",
    "UserSession",
    "SimdHybridPipeline",
    "StageTiming",
    "TrainedModels",
    "TrustedThirdParty",
    "UserClient",
    "build_pipeline",
    "encode_conv_weights",
    "encode_dense_weights",
    "encode_model_weights",
    "establish_user_keys",
    "he_conv2d",
    "he_dense",
    "he_scaled_mean_pool",
    "he_square",
    "measure_placement",
    "parameters_for_pipeline",
    "pool_with_strategy",
    "pure_he_modulus_bits_for_depth",
    "relinearize_refresh",
    "resolve_scheme",
    "sgx_refresh",
    "sgx_refresh_one_by_one",
    "stages_from_trace",
    "train_paper_models",
]
