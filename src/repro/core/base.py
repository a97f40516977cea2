"""What the HE pipelines share: one graph walk, one enclave bring-up.

Every encrypted pipeline is the same three steps -- build the scheme's
inference graph (:mod:`repro.graph`), walk it under one ``pipeline`` span,
wrap the outcome in an :class:`~repro.core.results.InferenceResult` -- so
:class:`GraphPipeline` does them once and a concrete pipeline is just its
validation plus which graph kind it builds.  :class:`EnclavePipeline` adds
the other thing the hybrid and SIMD pipelines repeated line for line:
loading the supervised inference enclave and running the paper's full
Fig. 2 key delivery for the simulated user.
"""

from __future__ import annotations

import numpy as np

from repro.core import heops
from repro.core.enclave_service import InferenceEnclave
from repro.core.keyflow import establish_user_keys
from repro.core.results import InferenceResult, stages_from_trace
from repro.errors import PipelineError
from repro.faults import EnclaveSupervisor
from repro.graph import executor as graph_executor
from repro.graph import ir
from repro.he.context import Ciphertext, Context
from repro.he.decryptor import Decryptor
from repro.he.encoders import ScalarEncoder
from repro.he.encryptor import Encryptor
from repro.he.evaluator import Evaluator, OperationCounter
from repro.he.params import EncryptionParams
from repro.sgx.attestation import AttestationVerificationService, QuotingService
from repro.sgx.enclave import SgxPlatform


class GraphPipeline:
    """An :class:`~repro.core.pipeline.InferencePipeline` whose ``infer`` is
    a walk of its graph.

    A subclass sets ``scheme`` and ``graph_kind``, builds its HE endpoints
    (``quantized``, ``context``, ``tracer``, ``counter``, ``evaluator``,
    ``encoder``, ``encryptor``, ``decryptor``) and calls :meth:`_bind`,
    which builds the graph once.
    """

    scheme = ""
    graph_kind = ""

    def _bind(self, *, enclave=None, relin_keys=None, **graph_options) -> None:
        self.graph = ir.build_graph(
            self.graph_kind, self.quantized, self.context.params, **graph_options
        )
        self.resources = graph_executor.Resources(
            tracer=self.tracer,
            evaluator=self.evaluator,
            encoder=self.encoder,
            weights=self._encode_weights(),
            enclave=enclave,
            encryptor=self.encryptor,
            decryptor=self.decryptor,
            quantize=self.quantized.quantize_images,
            relin_keys=relin_keys,
        )
        #: Extra attrs the scheme stamps on its pipeline span.
        self.span_attrs: dict = {}

    def _encode_weights(self) -> dict:
        """Weights are encoded once and stay outside the enclave (§IV-B)."""
        encoded = heops.encode_model_weights(self.evaluator, self.encoder, self.quantized)
        return {"conv": encoded.conv, "fc": encoded.dense}

    @property
    def conv_weights(self):
        return self.resources.weights["conv"]

    @property
    def dense_weights(self):
        return self.resources.weights["fc"]

    def encrypt_images(self, images: np.ndarray) -> Ciphertext:
        """User side: one ciphertext per pixel (the paper's non-SIMD encoding)."""
        pixels = self.quantized.quantize_images(images)
        return self.encryptor.encrypt(self.encoder.encode(pixels))

    def infer(self, images: np.ndarray) -> InferenceResult:
        """One inference: a walk of the graph."""
        with self.tracer.span(
            self.scheme,
            kind="pipeline",
            counter=self.counter,
            side_channel=getattr(self.resources.enclave, "side_channel", None),
            **self.span_attrs,
            batch=int(images.shape[0]),
        ) as trace:
            logits, budget, logits_ct = graph_executor.run(
                self.graph, self.resources, images=images
            )
        return InferenceResult(
            logits=logits,
            stages=stages_from_trace(trace),
            scheme=self.scheme,
            noise_budget_bits=budget,
            op_counts=dict(self.counter.counts),
            enclave_crossings=trace.crossings,
            trace=trace,
            logits_ct=logits_ct,
        )


class EnclavePipeline(GraphPipeline):
    """A pipeline hosting its own supervised inference enclave.

    Args:
        quantized: the integer model (must fit ``params.plain_modulus``).
        params: FV parameters; one linear layer of noise headroom suffices
            thanks to the enclave refresh.
        platform: the simulated SGX machine (fresh one by default).
        seed: reproducible randomness.
        trusted: False runs the same code (and the same recovery path)
            outside any enclave -- the paper's ``EncryptFakeSGX``.
        context_type: the :class:`~repro.he.context.Context` class of the
            pipeline's and its enclave's HE endpoints;
            :class:`repro.he.oracle.Context` runs the reference formulas.
        **graph_options: forwarded to the scheme's graph builder.
    """

    def __init__(
        self,
        quantized,
        params: EncryptionParams,
        platform: SgxPlatform | None = None,
        seed: int | None = None,
        *,
        trusted: bool = True,
        context_type: type[Context] = Context,
        **graph_options,
    ) -> None:
        if not quantized.fits_plain_modulus(params.plain_modulus):
            raise PipelineError(
                f"plain_modulus {params.plain_modulus} cannot hold the model's "
                f"intermediates (need >= {quantized.required_plain_modulus()})"
            )
        self.quantized = quantized
        self.params = params
        self.platform = platform if platform is not None else SgxPlatform()
        self.clock = self.platform.clock
        self.tracer = self.platform.tracer
        self.context = context_type(params)

        # Load the trusted service under crash supervision.
        self.enclave = EnclaveSupervisor(
            self.platform, InferenceEnclave, params, seed, trusted=trusted,
            context_type=context_type,
        )
        self.enclave.ecall("generate_keys")

        # Full Fig. 2 key delivery: the simulated user attests the enclave
        # and receives the key pair over the secure channel.
        self.quoting = QuotingService(self.platform)
        self.verifier = AttestationVerificationService()
        self.verifier.register_platform(self.quoting)
        entropy = np.random.default_rng(seed).bytes(32)
        user_keys = establish_user_keys(
            self.platform, self.enclave, self.quoting, self.verifier, params, entropy
        )

        self.counter = OperationCounter()
        self.evaluator = Evaluator(self.context, self.counter)
        self.encoder = ScalarEncoder(self.context)
        self.encryptor = Encryptor(
            self.context, user_keys.public, np.random.default_rng(seed)
        )
        self.decryptor = Decryptor(self.context, user_keys.secret)
        self._bind(enclave=self.enclave, **graph_options)
