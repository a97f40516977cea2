"""The inference enclave's trusted operations, checked against plaintext."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InferenceEnclave
from repro.errors import EnclaveError, PipelineError
from repro.he import Context, Decryptor, Encryptor, Evaluator, ScalarEncoder
from repro.he.batching import ImageLayout, read_image, write_image
from repro.he.context import Plaintext
from repro.nn.layers import Sigmoid
from repro.sgx import SgxPlatform


@pytest.fixture()
def platform():
    return SgxPlatform(platform_secret=b"\x11" * 32)


@pytest.fixture()
def enclave(platform, hybrid_params):
    handle = platform.load_enclave(InferenceEnclave, hybrid_params, 5)
    handle.ecall("generate_keys")
    return handle


@pytest.fixture()
def userland(enclave, hybrid_params):
    """User-side crypto objects under the enclave's public key."""
    context = Context(hybrid_params)
    public = enclave.ecall("get_public_key")
    rng = np.random.default_rng(8)
    # Re-anchor the key to the user's context object (same parameters).
    from repro.he.keys import PublicKey

    public = PublicKey(context, public.p0_ntt, public.p1_ntt)
    return {
        "context": context,
        "encoder": ScalarEncoder(context),
        "encryptor": Encryptor(context, public, rng),
        "evaluator": Evaluator(context),
    }


def encrypt_values(userland, values):
    return userland["encryptor"].encrypt(userland["encoder"].encode(values))


def decrypt_with_enclave(enclave, userland, ct):
    """Tests may peek via the enclave's own refresh-free decrypt path."""
    plain = enclave._instance._decryptor.decrypt(ct)
    return userland["encoder"].decode(plain)


class TestKeyAuthority:
    def test_generate_before_use_enforced(self, platform, hybrid_params):
        fresh = platform.load_enclave(InferenceEnclave, hybrid_params, 1)
        with pytest.raises(PipelineError):
            fresh.ecall("get_public_key")

    def test_relin_keys_work_for_outside_evaluator(self, enclave, userland):
        relin = enclave.ecall("generate_relin_keys")
        ct = userland["evaluator"].square(encrypt_values(userland, np.array([7])))
        relined = userland["evaluator"].relinearize(ct, relin)
        assert decrypt_with_enclave(enclave, userland, relined)[0] == 49

    def test_private_helpers_not_callable(self, enclave):
        with pytest.raises(EnclaveError):
            enclave.ecall("_decrypt_values", None)


class TestActivationPool:
    def test_matches_quantized_stage(self, enclave, userland, q_sigmoid, models):
        images = models.dataset.test_images[:2]
        conv_int = q_sigmoid.blocks[0].conv_stage(q_sigmoid.quantize_images(images))
        expected = q_sigmoid.blocks[0].enclave_stage(conv_int, q_sigmoid.input_scale)
        ct = encrypt_values(userland, conv_int)
        out = enclave.ecall(
            "activation_pool",
            ct,
            q_sigmoid.input_scale * q_sigmoid.blocks[0].weight_scale,
            q_sigmoid.blocks[0].act_scale,
            q_sigmoid.blocks[0].pool_window,
            "sigmoid",
        )
        assert np.array_equal(decrypt_with_enclave(enclave, userland, out), expected)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "leaky_relu"])
    def test_other_activations_supported(self, enclave, userland, activation):
        values = np.arange(-8, 8).reshape(1, 1, 4, 4) * 10
        ct = encrypt_values(userland, values)
        out = enclave.ecall("activation_pool", ct, 10.0, 100, 2, activation)
        assert out.batch_shape == (1, 1, 2, 2)

    def test_unknown_activation_rejected(self, enclave, userland):
        ct = encrypt_values(userland, np.zeros((1, 1, 2, 2), dtype=np.int64))
        with pytest.raises(PipelineError):
            enclave.ecall("activation_pool", ct, 1.0, 1, 2, "softmax")

    def test_served_crossing_computes_fc_into_one_result_per_image(
        self, enclave, userland
    ):
        """With ``image`` the crossing also runs fc on the pooled plaintext:
        image ``b``'s logits come back in result ``b``, class ``c`` in
        coefficient ``c`` and zero past the classes.  Without fc it is an
        inner block's crossing: the pooled maps come back as the next
        block's images, ``n // (H*W)`` per ciphertext.  A 1 x 1 kernel leaves
        conv output ``(i, j)`` in coefficient ``i*W + j``, so encrypted
        images stand in for conv outputs."""
        context = userland["context"]
        layout = ImageLayout(height=4, width=4, kernel=1, stride=1, bound=50)
        values = np.arange(-48, 48).reshape(3, 2, 4, 4)  # (B, F, H, W)
        ct = userland["encryptor"].encrypt(write_image(context, values))
        rng = np.random.default_rng(3)
        fc = (rng.integers(-4, 5, size=(2 * 2 * 2, 5)), rng.integers(-9, 10, size=5))
        args = ("activation_pool", ct, 1.0, 1, 2, "relu", "mean")
        out = enclave.ecall(*args, image=layout, fc=fc)
        assert out.batch_shape == (3,)
        pooled = np.rint(
            np.maximum(values, 0).reshape(3, 2, 2, 2, 2, 2).mean(axis=(3, 5))
        ).astype(np.int64)
        coeffs = enclave._instance._decryptor.decrypt(out).signed_coeffs()
        assert np.array_equal(coeffs[:, :5], pooled.reshape(3, -1) @ fc[0] + fc[1])
        assert not coeffs[:, 5:].any()
        # The next image: three pooled 2 x 2 maps per filter, all 64 of a
        # 256-coefficient polynomial's blocks free, so one row holds them.
        maps = enclave.ecall(*args, image=layout)
        assert maps.batch_shape == (1, 2)
        plain = enclave._instance._decryptor.decrypt(maps)
        nxt = ImageLayout(height=2, width=2, kernel=1, stride=1, bound=50)
        assert np.array_equal(read_image(plain, nxt, 3, 64), pooled)
        assert np.array_equal(plain.coeffs, write_image(context, pooled, per=64).coeffs)
        with pytest.raises(PipelineError, match="fc takes 7 features"):
            enclave.ecall(*args, image=layout, fc=(fc[0][:7], fc[1]))


class TestSigmoidEcall:
    def test_exact_sigmoid(self, enclave, userland):
        raw = np.array([-20, -5, 0, 5, 20], dtype=np.int64)
        ct = encrypt_values(userland, raw)
        out = enclave.ecall("sigmoid", ct, 10.0, 1000)
        expected = np.rint(Sigmoid.apply(raw / 10.0) * 1000).astype(np.int64)
        assert np.array_equal(decrypt_with_enclave(enclave, userland, out), expected)


class TestPoolingEcalls:
    def test_divide(self, enclave, userland):
        ct = encrypt_values(userland, np.array([[100, 101], [7, -9]]))
        out = enclave.ecall("divide", ct, 4)
        assert np.array_equal(
            decrypt_with_enclave(enclave, userland, out), [[25, 25], [2, -2]]
        )

    def test_divide_rejects_nonpositive(self, enclave, userland):
        ct = encrypt_values(userland, np.array([1]))
        with pytest.raises(PipelineError):
            enclave.ecall("divide", ct, 0)

    def test_mean_pool(self, enclave, userland):
        values = np.arange(16, dtype=np.int64).reshape(1, 1, 4, 4)
        out = enclave.ecall("mean_pool", encrypt_values(userland, values), 2)
        # Window means: [[2.5, 4.5], [10.5, 12.5]] -> banker's rounding.
        got = decrypt_with_enclave(enclave, userland, out)
        assert got.shape == (1, 1, 2, 2)
        assert np.abs(got - np.array([[[[2.5, 4.5], [10.5, 12.5]]]])).max() <= 0.5

    def test_max_pool(self, enclave, userland):
        """Max pooling is only computable in the enclave (Section VI-D); it
        rides the activation crossing, here with the identity ``relu`` of
        non-negative values."""
        values = np.arange(16, dtype=np.int64).reshape(1, 1, 4, 4)
        out = enclave.ecall(
            "activation_pool", encrypt_values(userland, values), 1.0, 1, 2, "relu", "max"
        )
        assert np.array_equal(
            decrypt_with_enclave(enclave, userland, out),
            [[[[5, 7], [13, 15]]]],
        )

    def test_pool_shape_mismatch_rejected(self, enclave, userland):
        values = np.zeros((1, 1, 5, 5), dtype=np.int64)
        with pytest.raises(PipelineError):
            enclave.ecall("mean_pool", encrypt_values(userland, values), 2)

    @pytest.mark.parametrize("shape", [(1, 1, 3, 3), (1, 4, 4)])
    def test_max_pool_bad_shape_is_typed(self, enclave, userland, shape):
        """A non-divisible map or a non-4-D batch fails like ``mean_pool``
        does, not with numpy's bare reshape ``ValueError``."""
        values = np.zeros(shape, dtype=np.int64)
        with pytest.raises(PipelineError):
            enclave.ecall(
                "activation_pool", encrypt_values(userland, values), 1.0, 1, 2,
                "relu", "max",
            )

    @pytest.mark.parametrize("window", [0, -2])
    @pytest.mark.parametrize(
        "entry,args",
        [
            ("mean_pool", {}),
            pytest.param(
                "activation_pool",
                {"input_scale": 10.0, "output_scale": 15, "pool": "max"},
                id="max_pool-args1",
            ),
            ("activation_pool", {"input_scale": 10.0, "output_scale": 15}),
        ],
    )
    def test_window_below_one_is_typed(self, enclave, userland, entry, args, window):
        """The window arrives from the untrusted host: 0 must not divide by
        zero, a negative one must not reach numpy's reshape -- for mean and
        max pooling alike."""
        ct = encrypt_values(userland, np.zeros((1, 1, 4, 4), dtype=np.int64))
        with pytest.raises(PipelineError, match="window must be >= 1"):
            enclave.ecall(entry, ct, window=window, **args)


class TestRefresh:
    def test_restores_noise_budget(self, enclave, userland, hybrid_params):
        evaluator = userland["evaluator"]
        encoder = userland["encoder"]
        ct = encrypt_values(userland, np.array([9]))
        squared = evaluator.square(ct)  # size 3, heavy noise
        refreshed = enclave.ecall("refresh", squared)
        decryptor = enclave._instance._decryptor
        assert refreshed.size == 2
        assert decryptor.invariant_noise_budget(refreshed) > (
            decryptor.invariant_noise_budget(squared)
        )
        assert encoder.decode(decryptor.decrypt(refreshed))[0] == 81

    def test_preserves_batch_shape(self, enclave, userland):
        ct = encrypt_values(userland, np.arange(12).reshape(3, 4))
        refreshed = enclave.ecall("refresh", ct)
        assert refreshed.batch_shape == (3, 4)


class TestValueGuards:
    def test_overflowing_reencryption_rejected(self, enclave, userland, hybrid_params):
        huge = hybrid_params.plain_modulus  # sigmoid output scaled too far
        ct = encrypt_values(userland, np.array([1000]))
        with pytest.raises(PipelineError):
            enclave.ecall("sigmoid", ct, 0.0001, huge * 10)

    def test_non_scalar_ciphertext_rejected(self, enclave, userland):
        context = userland["context"]
        coeffs = np.zeros(context.poly_degree, dtype=np.int64)
        coeffs[:2] = (12, 345)  # a second non-zero coefficient: not a scalar
        ct = userland["encryptor"].encrypt(Plaintext(context, coeffs))
        with pytest.raises(PipelineError):
            enclave.ecall("divide", ct, 2)


class TestFoldedCrossing:
    """``activation_pool(image=..., batch=...)`` on a flush's fold: four
    8 x 16 images, two per n = 256 polynomial, image ``b`` in block ``b % 2``
    of row ``b // 2``.  A 1 x 1 kernel leaves conv output ``(i, j)`` at pixel
    ``(i, j)``, so encrypted images stand in for conv outputs."""

    LAYOUT = ImageLayout(height=8, width=16, kernel=1, stride=1, bound=50)
    IDENTITY = (1.0, 1, 1, "relu", "mean")  # scales, window, activation, pool

    @pytest.fixture()
    def fold(self, userland):
        context = userland["context"]
        values = np.arange(-256, 256).reshape(4, 1, 8, 16) // 8  # (B, F, H, W)
        coeffs = values.reshape(2, 2, 1, 128).transpose(0, 2, 1, 3).reshape(2, 1, 256)
        ct = userland["encryptor"].encrypt(Plaintext(context, coeffs))
        rng = np.random.default_rng(3)
        fc = (rng.integers(-4, 5, size=(128, 3)), rng.integers(-9, 10, size=3))
        return ct, values, fc

    def call(self, enclave, fold, batch, scales=IDENTITY):
        ct, _values, fc = fold
        return enclave.ecall(
            "activation_pool", ct, *scales, image=self.LAYOUT, batch=batch, fc=fc
        )

    def test_crossing_activates_and_pools_every_image(self, enclave, fold):
        _ct, values, (weight, bias) = fold
        out = self.call(enclave, fold, 4)
        assert out.batch_shape == (4,)
        coeffs = enclave._instance._decryptor.decrypt(out).signed_coeffs()
        assert np.array_equal(coeffs[:, :3], np.maximum(values, 0).reshape(4, -1) @ weight + bias)
        assert not coeffs[:, 3:].any()

    @pytest.mark.parametrize("batch", [0, -1, 5])
    def test_bad_batch_is_a_typed_pipeline_error(self, enclave, fold, batch):
        with pytest.raises(PipelineError, match=r"batch must be in \[3, 4\]"):
            self.call(enclave, fold, batch)

    def test_too_small_batch_is_a_typed_pipeline_error(self, enclave, fold):
        """A host that under-reports the batch leaves a non-zero block past
        the images: typed, never a silently truncated flush."""
        with pytest.raises(PipelineError, match="not image-encoded for a batch of 3"):
            self.call(enclave, fold, 3)

    def test_out_of_range_values_rejected(self, enclave, fold, hybrid_params):
        scales = (1.0, hybrid_params.plain_modulus, 1, "relu", "mean")
        with pytest.raises(PipelineError, match="plaintext range"):
            self.call(enclave, fold, 4, scales)
