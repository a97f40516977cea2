#!/usr/bin/env python3
"""Beyond the paper: a multi-block CNN under the hybrid framework.

The paper stops at one conv block because pure HE makes depth prohibitively
expensive (Section VIII).  The hybrid framework does not: the enclave
re-encrypts at every activation, so a 2-block network runs under the same
modest FV parameters as a 1-block one -- this example shows it live,
including the per-block stage breakdown and the depth-independent noise
budget.  Images are encrypted one per polynomial (18 x 18 pixels fit n =
1024), and each block's enclave crossing writes the next block's images:
the ``simd`` pipeline runs a model of any depth.
Exits nonzero if the encrypted logits differ from the integer reference.

Run:
    python examples/deep_network.py
"""

from __future__ import annotations

import numpy as np

from repro.core import build_pipeline, parameters_for_pipeline, pure_he_modulus_bits_for_depth
from repro.nn import QuantizedCNN, deep_cnn, synthetic_mnist, train


def main() -> None:
    size = 18  # 18 -> conv 16 -> pool 8 -> conv 6 -> pool 3 -> dense
    print("== Train a 2-block CNN (conv-tanh-pool x2 -> dense) ==")
    model = deep_cnn(image_size=size, block_channels=(3, 4), kernel_size=3,
                     activation="tanh", rng=np.random.default_rng(1))
    print(model.summary())
    data = synthetic_mnist(train_size=800, test_size=200, seed=1)
    lo = (28 - size) // 2
    train_images = data.train_images[:, :, lo : lo + size, lo : lo + size]
    test_images = data.test_images[:, :, lo : lo + size, lo : lo + size]
    report = train(model, train_images.astype(np.float64) / 255.0,
                   data.train_labels, epochs=8, learning_rate=0.05,
                   eval_images=test_images.astype(np.float64) / 255.0,
                   eval_labels=data.test_labels)
    print(f"   test accuracy after training: {report.final_accuracy:.2f}")

    print("\n== Quantize and size parameters (depth-independent!) ==")
    quantized = QuantizedCNN.from_float(model, weight_bits=6, act_scale=63)
    params = parameters_for_pipeline(quantized, 1024)
    print(f"   {params.describe()}")
    pure_need = pure_he_modulus_bits_for_depth(
        len(quantized.blocks), params.plain_modulus.bit_length(), params.poly_degree
    )
    print(f"   hybrid needs log2(q) = {params.coeff_modulus.bit_length()}; a "
          f"pure-HE evaluation of the same depth would need ~{pure_need:.0f} bits")

    print("\n== Encrypted inference, block by block ==")
    pipeline = build_pipeline("simd", quantized, params, seed=2)
    batch = test_images[:3]
    result = pipeline.infer(batch)
    print(result.describe())
    print(f"   enclave crossings: {result.enclave_crossings} "
          f"(one per block, regardless of width)")
    exact = np.array_equal(result.logits, quantized.forward_int(batch))
    print(f"   bit-exact vs integer reference: {exact}")
    print(f"   labels:      {data.test_labels[:3].tolist()}")
    print(f"   predictions: {result.predictions.tolist()}")
    if not exact:
        raise SystemExit("BUG: the deep hybrid pipeline must be bit-exact")


if __name__ == "__main__":
    main()
