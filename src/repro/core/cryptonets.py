"""The ``Encrypted`` baseline: pure-HE CryptoNets-style inference.

Everything runs homomorphically on the untrusted edge server (paper
Section III-A / CryptoNets):

* convolution and FC: C x P multiplications + C + C additions;
* activation: the Square polynomial substitute (a real ciphertext-ciphertext
  multiplication, leaving size-3 ciphertexts);
* pooling: the division-free scaled mean-pool (window sum);
* rescaling and relinearization (with TTP-issued keys), once per logit:
  everything after the square is an integer linear map, so the square stays
  the exact, unscaled tensor product ``d``, pool sums it and FC contracts it
  by the integer weights, and FC's stage then rounds ``t/q * sum L d`` once
  per logit and adds ``Delta * b`` -- FV's own rounding of one product, not
  ``||L||_1`` of them.  The chain is ``encrypt -> conv -> square -> pool ->
  fc -> relinearize -> decrypt``;
* nothing is ever decrypted server-side.

Accuracy consequence: the model must have been *trained* with these
substitutes (`repro.nn.model.cryptonets_cnn`), and the plaintext modulus
must absorb squared magnitudes -- the accuracy/cost trade-off the hybrid
framework removes.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import GraphPipeline
from repro.errors import PipelineError
from repro.he.context import Context
from repro.he.decryptor import Decryptor
from repro.he.encoders import ScalarEncoder
from repro.he.encryptor import Encryptor
from repro.he.evaluator import Evaluator, OperationCounter
from repro.he.keys import KeyGenerator
from repro.he.params import EncryptionParams
from repro.nn.quantize import QuantizedCNN
from repro.obs import Tracer
from repro.sgx.clock import SimClock


class CryptonetsPipeline(GraphPipeline):
    """Pure-HE inference (the paper's ``Encrypted`` comparison scheme).

    The pipeline plays both user (encrypt/decrypt) and server (evaluate)
    roles so benchmarks can time each stage; key *distribution* is a
    separate concern covered by :mod:`repro.core.keyflow` -- note that this
    baseline structurally needs the TTP for its relinearization keys.

    Args:
        quantized: integer model of one ``activation="square"`` block.
        params: FV parameters; must fit ``quantized.required_plain_modulus()``.
        seed: reproducible key/encryption randomness.
        clock: shared simulated clock (a fresh one by default).
        context_type: the :class:`~repro.he.context.Context` class of the
            pipeline's HE endpoints (:class:`repro.he.oracle.Context`: the
            reference formulas).
    """

    scheme = "Encrypted"
    graph_kind = "cryptonets"
    # Bound on this class too, not just inherited: benchmarks/e2e/spans.py
    # (read-only) wraps ``vars(CryptonetsPipeline)["infer"]``.
    infer = GraphPipeline.infer

    def __init__(
        self,
        quantized: QuantizedCNN,
        params: EncryptionParams,
        seed: int | None = None,
        clock: SimClock | None = None,
        *,
        context_type: type[Context] = Context,
    ) -> None:
        if quantized.blocks[0].activation != "square":
            raise PipelineError(
                "the pure-HE baseline cannot evaluate a non-polynomial "
                "activation; quantize a cryptonets_cnn model (Square + "
                "ScaledMeanPool2D) instead"
            )
        if not quantized.fits_plain_modulus(params.plain_modulus):
            raise PipelineError(
                f"plain_modulus {params.plain_modulus} cannot hold the squared "
                f"intermediates (need >= {quantized.required_plain_modulus()})"
            )
        self.quantized = quantized
        self.context = context_type(params)
        self.clock = clock if clock is not None else SimClock()
        rng = np.random.default_rng(seed)
        keygen = KeyGenerator(self.context, rng)
        self._keys = keygen.generate()
        self._relin_keys = keygen.relin_keys(self._keys.secret)
        self.counter = OperationCounter()
        self.tracer = Tracer(self.clock, counter=self.counter)
        self.evaluator = Evaluator(self.context, self.counter)
        self.encoder = ScalarEncoder(self.context)
        self.encryptor = Encryptor(self.context, self._keys.public, rng)
        self.decryptor = Decryptor(self.context, self._keys.secret)
        self._bind(relin_keys=self._relin_keys)
        # The squares stay unscaled through pool and fc, which round once per
        # logit: the auxiliary basis holds ||L||_1 = window^2 * max_o
        # sum_d |W_od| of that integer map (DESIGN.md section 10).
        fc = np.abs(self.graph.meta["layers"]["fc"])
        window = self.graph.node("pool").attrs["window"]
        self.context.hold_product_sums(window**2 * int(fc.sum(axis=1).max()))
