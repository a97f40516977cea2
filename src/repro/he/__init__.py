"""From-scratch Fan-Vercauteren (FV/BFV) homomorphic encryption.

The HE substrate of the reproduction: RNS polynomial arithmetic over
NTT-friendly primes, the seven algorithms of the paper's Section II-B
(SecretKeyGen, PublicKeyGen, Encrypt, Decrypt, Add, Multiply,
EvaluationKeyGen + relinearization), a constant-coefficient encoder, and
coefficient packing (:mod:`repro.he.batching`).

Typical usage::

    from repro.he import Context, KeyGenerator, Encryptor, Decryptor, Evaluator
    from repro.he import ScalarEncoder, default_parameter_options

    context = Context(default_parameter_options()[2048])
    keys = KeyGenerator(context).generate()
    encoder = ScalarEncoder(context)
    encryptor = Encryptor(context, keys.public)
    evaluator = Evaluator(context)
    decryptor = Decryptor(context, keys.secret)

    ct = encryptor.encrypt(encoder.encode(21))
    ct2 = evaluator.add(ct, ct)
    assert encoder.decode(decryptor.decrypt(ct2)) == 42
"""

from repro.he.context import Ciphertext, Context, Plaintext, TensorProduct
from repro.he.decryptor import Decryptor
from repro.he.encoders import ScalarEncoder
from repro.he.encryptor import Encryptor, SymmetricEncryptor
from repro.he.evaluator import Evaluator, OperationCounter, PlainOperand
from repro.he.keys import KeyGenerator, KeyPair, PublicKey, RelinKeys, SecretKey
from repro.he.noise import NoiseEstimator
from repro.he.params import (
    EncryptionParams,
    default_parameter_options,
    paper_parameters,
    small_parameter_options,
)

__all__ = [
    "Ciphertext",
    "Context",
    "Decryptor",
    "EncryptionParams",
    "Encryptor",
    "Evaluator",
    "KeyGenerator",
    "KeyPair",
    "NoiseEstimator",
    "OperationCounter",
    "PlainOperand",
    "Plaintext",
    "PublicKey",
    "RelinKeys",
    "ScalarEncoder",
    "SecretKey",
    "SymmetricEncryptor",
    "TensorProduct",
    "default_parameter_options",
    "paper_parameters",
    "small_parameter_options",
]
