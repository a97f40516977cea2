"""Edge-server facade: the deployable face of the framework.

Ties the pieces together the way the paper's deployment story does
(Sections IV + VII): one SGX-capable edge node hosts an inference enclave
that is simultaneously key authority and plaintext co-processor; quantized
models are provisioned once (optionally persisted as *sealed* blobs so a
restarted enclave of the same identity can recover them from untrusted
storage); users enroll via remote attestation; and inference requests are
routed to the hybrid pipeline -- packed into shared ciphertexts when the
caller asks for throughput.

This is the API a downstream integrator would embed::

    server = EdgeServer(params, seed=7, fleet_size=2)
    server.provision_model("digits", quantized)
    session = AttestedClient(server, verifier, os.urandom(32)).establish().session
    request = InferenceRequest(model="digits", ciphertext=session.encrypt("digits", images))
    response = server.infer(request)
    predictions = session.decrypt(response)

A request is one frozen :class:`~repro.serve.api.InferenceRequest`; both
the direct and the packed path execute as walks of the model's inference
graph (:mod:`repro.graph`, kinds ``served`` and ``packed``), each built
once at provisioning and walked as built.
``fleet_size > 1`` runs N enclave replicas behind one facade (see
:class:`~repro.faults.FleetManager`): replica 0 generates the HE key pair,
the rest join via quote-verified sealed-key migration, and packed flushes
fail over to a surviving replica on replica loss.  Load
generators drive the scheduler directly via ``server.scheduler.submit`` /
``drain`` (see ``examples/multi_user_service.py`` for the full runnable
flow), or the event-driven :class:`~repro.serve.ServingLoop`, which owns
every time-based policy (coalescing window, priorities, SLO deadlines).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core import heops
from repro.core.enclave_service import InferenceEnclave
from repro.core.keyflow import SgxKeyDistribution
from repro.core.results import InferenceResult, stages_from_trace
from repro.errors import EncodingError, PipelineError, UnknownModelError
from repro.faults import EnclaveSupervisor, FleetManager
from repro.graph import executor as graph_executor
from repro.graph import ir as graph_ir
from repro.he import serialize as he_serialize
from repro.he.batching import read_lanes, write_image
from repro.he.context import Ciphertext, Context
from repro.he.decryptor import Decryptor
from repro.he.encoders import ScalarEncoder
from repro.he.encryptor import Encryptor
from repro.he.evaluator import Evaluator, OperationCounter
from repro.he.params import EncryptionParams
from repro.nn.quantize import QuantizedCNN, QuantizedConvBlock
from repro.obs import metrics
from repro.obs import context as obs_context
from repro.obs.context import TraceContext
from repro.serve.api import InferenceRequest
from repro.serve.api import InferenceResult as _ServeResult
from repro.serve.scheduler import RequestScheduler, ServeConfig
from repro.sgx.attestation import QuotingService
from repro.sgx.enclave import SgxPlatform
from repro.sgx.sealing import SealedBlob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import PipelineSpec


@dataclass
class UserSession:
    """A user's view after successful enrollment: their own crypto endpoints."""

    context: Context
    encryptor: Encryptor
    decryptor: Decryptor
    quantized_by_model: dict

    def encrypt(self, model_name: str, images: np.ndarray) -> Ciphertext:
        """The served request format: ``(B, C)`` ciphertexts, one per image
        channel, pixel ``(i, j)`` in coefficient ``i*W + j``
        (:func:`~repro.he.batching.write_image`).

        Raises:
            EncodingError: the images are not ``(B, C, H, W)`` with the
                model's ``(C, H, W)``, or ``H*W`` exceeds the ring degree.
        """
        quantized = self._quantized(model_name)
        pixels = quantized.quantize_images(images)
        c, h, w = quantized.input_shape
        if pixels.shape[1:] != (c, h, w):
            raise EncodingError(
                f"model {model_name!r} consumes (B, {c}, {h}, {w}) images, "
                f"got {pixels.shape}"
            )
        return self.encryptor.encrypt(write_image(self.context, pixels))

    def decrypt(self, result: "ServedResult") -> np.ndarray:
        return self.decrypt_logits(result).argmax(axis=1)

    def decrypt_logits(self, result: "ServedResult") -> np.ndarray:
        """``(B, classes)`` logits from a result's ``(B,)`` ciphertexts: one
        full decrypt, then :func:`~repro.he.batching.read_lanes` along the
        class axis, which raises :class:`~repro.errors.EncodingError` unless
        every coefficient past the model's classes is zero (an overflowed
        result, or one not laid out for this model)."""
        classes = self._quantized(result.model).dense_weight.shape[1]
        plain = self.decryptor.decrypt(result.logits_ct.reshape(1, -1))
        return read_lanes(plain, classes).T

    def _quantized(self, model_name: str) -> QuantizedCNN:
        quantized = self.quantized_by_model.get(model_name)
        if quantized is None:
            raise UnknownModelError(f"unknown model {model_name!r}")
        return quantized


# The server's result type now lives with the request type in
# ``repro.serve.api``; ``ServedResult`` stays as a pure alias so every
# existing constructor call and isinstance check keeps working unchanged.
ServedResult = _ServeResult

#: Scheme label stamped on direct (unpacked) serving traces and results.
SERVED_SCHEME = "EdgeServer/EncryptSGX"


def _pack_model_payload(name: str, quantized: QuantizedCNN) -> bytes:
    """Serialize a named model pickle-free: a JSON metadata header (the
    scalars, one object per block) plus the library's int64 wire format for
    the weight arrays -- each block's weight and bias, then fc's -- so that
    nothing executable ever round-trips through sealed storage."""
    meta = json.dumps(
        {
            "name": name,
            "input_scale": int(quantized.input_scale),
            "dense_weight_scale": float(quantized.dense_weight_scale),
            "blocks": [
                {
                    "weight_scale": float(block.weight_scale),
                    "stride": int(block.stride),
                    "activation": block.activation,
                    "pool": block.pool,
                    "pool_window": int(block.pool_window),
                    "act_scale": int(block.act_scale),
                }
                for block in quantized.blocks
            ],
        }
    ).encode("utf-8")
    arrays = [a for block in quantized.blocks for a in (block.weight, block.bias)]
    arrays += [quantized.dense_weight, quantized.dense_bias]
    return struct.pack("<I", len(meta)) + meta + he_serialize.serialize_int64_arrays(arrays)


def _unpack_model_payload(payload: bytes) -> tuple[str, QuantizedCNN]:
    (meta_len,) = struct.unpack_from("<I", payload, 0)
    meta = json.loads(payload[4 : 4 + meta_len].decode("utf-8"))
    arrays, _ = he_serialize.deserialize_int64_arrays(payload[4 + meta_len :])
    blocks = [
        QuantizedConvBlock(weight=arrays[2 * i], bias=arrays[2 * i + 1], **block)
        for i, block in enumerate(meta["blocks"])
    ]
    quantized = QuantizedCNN(
        blocks=blocks,
        dense_weight=arrays[-2],
        dense_bias=arrays[-1],
        dense_weight_scale=meta["dense_weight_scale"],
        input_scale=meta["input_scale"],
    )
    return meta["name"], quantized


class EdgeServer:
    """One SGX-capable edge node running the hybrid framework.

    Args:
        params: FV parameter set all hosted models share.
        platform: simulated SGX machine (fresh by default).
        seed: reproducible randomness for keygen and encryption.
        serve_config: policy for the packing scheduler (defaults apply when
            omitted); the scheduler itself is created lazily on first use.
        fleet_size: enclave replicas behind the facade (default 1, the
            historical single-enclave server).  Replica 0 generates the key
            pair; the rest join via quote-verified sealed-key migration, so
            every replica decrypts and refreshes with the same keys.
        context_type: the :class:`~repro.he.context.Context` class of the
            server's evaluator and of every replica's enclave
            (:class:`repro.he.oracle.Context`: the reference formulas).
    """

    def __init__(
        self,
        params: EncryptionParams,
        platform: SgxPlatform | None = None,
        seed: int | None = None,
        serve_config: ServeConfig | None = None,
        *,
        fleet_size: int = 1,
        context_type: type[Context] = Context,
    ) -> None:
        self.params = params
        self.platform = platform if platform is not None else SgxPlatform()
        self.context = context_type(params)
        self.fleet = FleetManager(
            self.platform, InferenceEnclave, params, seed, replicas=fleet_size,
            context_type=context_type,
        )
        self.fleet.generate_keys()
        self.quoting = QuotingService(self.platform)
        self._exchanges = 0
        self.counter = OperationCounter()
        self.evaluator = Evaluator(self.context, self.counter)
        self.encoder = ScalarEncoder(self.context)
        self._models: dict[str, QuantizedCNN] = {}
        self._resources: dict[str, graph_executor.Resources] = {}
        self._graphs: dict[tuple[str, str], graph_ir.InferenceGraph] = {}
        self._serve_config = serve_config if serve_config is not None else ServeConfig()
        self._scheduler: RequestScheduler | None = None

    @classmethod
    def from_spec(
        cls,
        spec: "PipelineSpec",
        platform: SgxPlatform | None = None,
        seed: int | None = None,
        sizing_model: QuantizedCNN | None = None,
    ) -> "EdgeServer":
        """Build a server from a declarative :class:`~repro.core.pipeline.
        PipelineSpec`: parameters (exact, or auto-sized against
        ``sizing_model``), flush worker count, fleet size and queue bounds
        all come from the spec.
        """
        spec.apply_workers()
        return cls(
            spec.resolve_params(sizing_model),
            platform=platform,
            seed=seed,
            serve_config=spec.serve_config(),
            fleet_size=spec.fleet_size,
        )

    @property
    def enclave(self) -> EnclaveSupervisor:
        """The fleet's current key-authority replica.

        A property, not a bound attribute, so that after an authority
        failover attestation, sealing and key exchange all re-point at the
        surviving authority automatically.
        """
        return self.fleet.authority

    # ------------------------------------------------------------------
    # model provisioning
    # ------------------------------------------------------------------
    def provision_model(self, name: str, quantized: QuantizedCNN) -> None:
        """Install a quantized model and pre-encode its weights (§IV-B).

        Raises:
            PipelineError: a model of more than one block (the serving paths
                take the paper's one), a square-activation model, or one
                whose intermediates do not fit the plaintext modulus.
        """
        if len(quantized.blocks) > 1:
            raise PipelineError(
                f"model {name!r} has {len(quantized.blocks)} conv blocks; the edge "
                "server serves one-block models (run deeper ones on 'simd')"
            )
        if quantized.blocks[0].activation == "square":
            raise PipelineError(
                "the edge server runs the hybrid framework; square-activation "
                "models belong to the pure-HE baseline"
            )
        if not quantized.fits_plain_modulus(self.params.plain_modulus):
            raise PipelineError(
                f"model {name!r} needs t >= {quantized.required_plain_modulus()}"
            )
        # Requests are one image per polynomial (ParameterError if one does
        # not fit).  The flush is the direct chain behind a fold, so its
        # graph, whose conv also pays the fold, is the one to budget.
        lanes = self._serve_config.capacity(self.params.poly_degree)
        packed = graph_ir.build_graph("packed", quantized, self.params, lanes=lanes)
        graph_ir.require_headroom(packed)
        self._models[name] = quantized
        # Both kinds walk the same operands, encoded here, once; fc's public
        # integer weight and bias ride each crossing (the enclave keeps no
        # model state to re-provision after a restart or failover).
        self._resources[name] = graph_executor.Resources(
            tracer=self.platform.tracer,
            evaluator=self.evaluator,
            encoder=self.encoder,
            weights=heops.encode_served_weights(self.evaluator, quantized, packed),
        )
        self._graphs[name, "served"] = graph_ir.build_graph(
            "served", quantized, self.params
        )
        self._graphs[name, "packed"] = packed
        self.fleet.register_model(name)
        if metrics.registry().enabled:
            metrics.family("repro_he_noise_budget_bits").labels(
                model=name, layer="conv"
            ).set(packed.node("conv").budget_bits)

    def seal_model(self, name: str) -> SealedBlob:
        """Persist a provisioned model as a sealed blob for untrusted storage.

        Only an enclave with the same MRENCLAVE on the same platform can
        recover it -- the paper's "deployed in the edge server securely"
        assumption made concrete.  The payload is pickle-free (JSON metadata
        plus the library's int64 wire format).
        """
        quantized = self._require_model(name)
        return self.enclave.seal(_pack_model_payload(name, quantized))

    def restore_model(self, blob: SealedBlob) -> str:
        """Unseal and re-provision a model (e.g. after an enclave restart).

        Raises:
            SealingError: the blob belongs to a different enclave/platform
                or was tampered with.
        """
        name, quantized = _unpack_model_payload(self.enclave.unseal(blob))
        self.provision_model(name, quantized)
        return name

    def models(self) -> list[str]:
        return sorted(self._models)

    def model(self, name: str) -> QuantizedCNN:
        """The provisioned quantized model, or :class:`UnknownModelError`."""
        return self._require_model(name)

    # ------------------------------------------------------------------
    # user enrollment (Fig. 2 key delivery)
    # ------------------------------------------------------------------
    def descriptor(self) -> dict:
        """What a connecting client learns about this endpoint before any
        trust is established: hosted models, the fleet's code identity and
        topology, and the key generation sessions pin against."""
        return {
            "models": self.models(),
            "mrenclave": self.enclave.measurement.mrenclave,
            "replicas": self.fleet.live_replicas(),
            "authority": self.fleet.authority_id,
            "key_generation": self.fleet.key_generation,
        }

    def serve_key_exchange(self, user_dh_public):
        """Server half of the attested DH key exchange (Fig. 2): returns
        ``(quote, sealed_message)`` for the client to verify and open.

        The exchange is served by the *current* authority replica, built
        per call so an authority failover between exchanges is transparent.
        """
        distribution = SgxKeyDistribution(
            platform=self.platform, enclave=self.enclave, quoting=self.quoting
        )
        self._exchanges += 1
        # Enrollment is control-plane work: a derived context keeps the
        # exchange's ECALL spans attributable without a client request.
        exchange_context = (
            None
            if obs_context.current()
            else TraceContext.derive(
                "server:key_exchange",
                self._exchanges,
                parent_id=f"server/key_exchange-{self._exchanges}",
            )
        )
        with obs_context.activate(exchange_context):
            return distribution.serve_exchange(user_dh_public)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    @property
    def scheduler(self) -> RequestScheduler:
        """The packing scheduler.  Created on first use: it refers back to the
        server, and one that never packs should not need the cycle collector."""
        if self._scheduler is None:
            self._scheduler = RequestScheduler(self, self._serve_config)
        return self._scheduler

    def infer(self, request: InferenceRequest) -> ServedResult:
        """Run the hybrid pipeline on encrypted pixels; logits stay encrypted.

        Takes one frozen, validated :class:`~repro.serve.api.InferenceRequest`::

            server.infer(InferenceRequest(model="digits", ciphertext=ct))
            server.infer(InferenceRequest(model="digits", ciphertext=ct, pack=True))

        ``pack=True`` routes through the packing scheduler; the call
        stays synchronous (it drains the model's bucket if the submission
        did not already fill a batch), so concurrent callers that submitted
        earlier ride the same flush and share its HE cost.
        """
        if not isinstance(request, InferenceRequest):
            raise PipelineError("EdgeServer.infer takes one InferenceRequest")
        if request.pack:
            response = self.scheduler.submit(
                request.model, request.ciphertext, context=request.context
            )
            if not response.done():
                self.scheduler.drain(request.model)
            return response.result()
        enclave = self.enclave
        # The request's context is ambient while the pipeline span opens,
        # so the tracer stamps trace_id / trace_parent on it.
        logits_ct, timing = self.run_graph(
            "served",
            SERVED_SCHEME,
            request.model,
            request.ciphertext,
            enclave=enclave,
            contexts=(request.context,),
        )
        return ServedResult(
            logits_ct=logits_ct,
            timing=timing,
            model=request.model,
            replica=enclave.replica,
            context=request.context,
        )

    def run_graph(
        self,
        kind: str,
        scheme: str,
        model_name: str,
        ct: Ciphertext | Sequence[Ciphertext],
        *,
        enclave: EnclaveSupervisor,
        contexts=(),
        before_close=None,
        **span_attrs,
    ) -> tuple[Ciphertext, InferenceResult]:
        """Walk ``model_name``'s ``kind`` graph over ``ct`` (for
        ``packed``, the flush's request ciphertexts un-stacked) on
        ``enclave`` under one ``scheme`` pipeline span.

        The shared body of the direct path and the scheduler's packed
        flush.  ``before_close`` runs inside the pipeline span after the
        walk (the flush hangs its ``serve/request`` spans there).  Returns
        the ``(B,)`` result ciphertexts, one per image with its logits in
        coefficients ``0..classes-1``, and the run's timing record (logits
        zeroed: only the user can decrypt).
        """
        quantized = self._require_model(model_name)
        graph = self._graphs[model_name, kind]
        env = replace(self._resources[model_name], enclave=enclave)
        batch = graph_executor.leading_batch(ct)
        with obs_context.activate(*contexts), self.platform.tracer.span(
            scheme,
            kind="pipeline",
            counter=self.counter,
            side_channel=enclave.side_channel,
            model=model_name,
            batch=batch,
            **span_attrs,
        ) as trace:
            _, _, logits_ct = graph_executor.run(graph, env, ciphertext=ct)
            if before_close is not None:
                before_close()
        timing = InferenceResult(
            logits=np.zeros((batch, quantized.dense_weight.shape[1])),
            stages=stages_from_trace(trace),
            scheme=scheme,
            op_counts=dict(self.counter.counts),
            enclave_crossings=trace.crossings,
            trace=trace,
        )
        return logits_ct, timing

    def _require_model(self, name: str) -> QuantizedCNN:
        quantized = self._models.get(name)
        if quantized is None:
            raise UnknownModelError(
                f"unknown model {name!r}; provisioned: {self.models()}"
            )
        return quantized
