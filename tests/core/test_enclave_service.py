"""The inference enclave's trusted operations, checked against plaintext."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InferenceEnclave
from repro.errors import EnclaveError, PipelineError
from repro.he import Ciphertext, Context, Decryptor, Encryptor, Evaluator, ScalarEncoder
from repro.he.batching import ClassLayout
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
        conv_int = q_sigmoid.conv_stage(q_sigmoid.quantize_images(images))
        expected = q_sigmoid.enclave_stage(conv_int)
        ct = encrypt_values(userland, conv_int)
        out = enclave.ecall(
            "activation_pool",
            ct,
            q_sigmoid.conv_output_scale,
            q_sigmoid.act_scale,
            q_sigmoid.pool_window,
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
        values = np.arange(16, dtype=np.int64).reshape(1, 1, 4, 4)
        out = enclave.ecall("max_pool", encrypt_values(userland, values), 2)
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
            enclave.ecall("max_pool", encrypt_values(userland, values), 2)

    @pytest.mark.parametrize("window", [0, -2])
    @pytest.mark.parametrize(
        "entry,args",
        [
            ("mean_pool", ()),
            ("max_pool", ()),
            ("activation_pool", (10.0, 15)),
        ],
    )
    def test_window_below_one_is_typed(self, enclave, userland, entry, args, window):
        """The window arrives from the untrusted host: 0 must not divide by
        zero, a negative one must not reach numpy's reshape."""
        ct = encrypt_values(userland, np.zeros((1, 1, 4, 4), dtype=np.int64))
        with pytest.raises(PipelineError, match="window must be >= 1"):
            enclave.ecall(entry, ct, *args, window)


class TestPackedCrossingProbes:
    """``activation_pool_packed`` (the optimizer's scalar-crossing fold)
    reads runs of ``chunk`` coefficients: everything past a run must
    decrypt to zero, or the ECALL fails typed instead of activating the
    wrong values."""

    ARGS = (1.0, 1, 1, "relu", "mean")  # scales, window, activation, pool

    @pytest.fixture()
    def values(self):
        return np.arange(-8, 8, dtype=np.int64).reshape(1, 1, 4, 4)

    def folded_at_8(self, userland, values):
        """Two ciphertexts, run ``j`` of 8 flat values in the lanes of ``j``."""
        from repro.he.batching import write_lanes

        runs = write_lanes(userland["context"], values.reshape(2, 8).T)
        return userland["encryptor"].encrypt(runs)

    def test_payload_read_at_its_chunk(self, enclave, userland, values):
        payload = self.folded_at_8(userland, values)
        out = enclave.ecall("activation_pool_packed", payload, values.shape, 8, *self.ARGS)
        got = decrypt_with_enclave(enclave, userland, out)
        assert np.array_equal(got, np.maximum(values, 0))

    def test_payload_declared_at_a_smaller_chunk_is_typed(self, enclave, userland, values):
        """Folded at 8, declared as 4 over a shape that needs the same two
        ciphertexts: coefficients 4..7 of each are not zero."""
        payload = self.folded_at_8(userland, values)
        with pytest.raises(PipelineError, match="not lane-encoded"):
            enclave.ecall("activation_pool_packed", payload, (1, 1, 2, 4), 4, *self.ARGS)

    def test_payload_with_live_tail_lanes_is_typed(self, enclave, userland, values):
        """Declared as 12 values at chunk 8: the same two ciphertexts, but
        lanes 4..7 of the tail one must then be zero."""
        payload = self.folded_at_8(userland, values)
        with pytest.raises(PipelineError, match="tail lanes past them are not zero"):
            enclave.ecall("activation_pool_packed", payload, (1, 1, 3, 4), 8, *self.ARGS)

    def test_payload_with_the_wrong_ciphertext_count_is_typed(self, enclave, userland, values):
        payload = self.folded_at_8(userland, values)
        with pytest.raises(PipelineError, match="carries 2 ciphertexts.* needs 1"):
            enclave.ecall("activation_pool_packed", payload, (1, 1, 2, 4), 8, *self.ARGS)

    def test_noise_exhausted_payload_is_typed(self, enclave, userland, values):
        payload = self.folded_at_8(userland, values)
        data = payload.data
        for _ in range(3):  # x 2^60: past any budget of this 60-bit q
            data = payload.context.ring.mul_scalar(data, 1 << 20)
        exhausted = Ciphertext(payload.context, data, is_ntt=True)
        assert not enclave._instance._decryptor.is_decryptable(exhausted)
        with pytest.raises(PipelineError, match="overflowed"):
            enclave.ecall("activation_pool_packed", exhausted, values.shape, 8, *self.ARGS)


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
        from repro.he import IntegerEncoder

        encoder = IntegerEncoder(userland["context"], base=3)
        ct = userland["encryptor"].encrypt(encoder.encode(12345))
        with pytest.raises(PipelineError):
            enclave.ecall("divide", ct, 2)


class TestSlotCrossings:
    """``activation_pool_lanes`` (the SIMD kind's crossing, on a batch riding
    polynomial coefficients ``0..B-1``) and ``unpack_lanes`` (the serving
    paths' result crossing, on a class-strided fc result); the class keeps
    the name it had when the flush crossed in CRT slots."""

    IDENTITY = (1.0, 1, 1, "relu", "mean")  # scales, window, activation, pool
    #: 12 "classes" of 4 requests, two coefficients apart, one result each.
    LAYOUT = ClassLayout(features=2, classes=12, poly_degree=256, bound=24)

    @pytest.fixture()
    def lane_deployment(self, platform, hybrid_params):
        from repro.he.batching import write_lanes
        from repro.he.keys import PublicKey

        handle = platform.load_enclave(InferenceEnclave, hybrid_params, 5)
        handle.ecall("generate_keys")
        context = Context(hybrid_params)
        public = handle.ecall("get_public_key")
        encryptor = Encryptor(
            context,
            PublicKey(context, public.p0_ntt, public.p1_ntt),
            np.random.default_rng(8),
        )
        rows = np.arange(-24, 24).reshape(4, 3, 2, 2)  # 4 requests of (3, 2, 2)
        return handle, encryptor.encrypt(write_lanes(context, rows)), rows, encryptor

    def strided(self, encryptor, rows):
        """``rows`` as a class-strided ``(4, 1)`` fc result, a partial
        product of 99 between every two classes."""
        coeffs = np.zeros((4, 1, 256), dtype=np.int64)
        coeffs[:, 0, : 2 * 12 : 2] = 99
        coeffs[:, 0, self.LAYOUT.class_offsets()] = rows.reshape(4, 12)
        return encryptor.encrypt(Plaintext(encryptor.context, coeffs))

    def unpack(self, handle, strided):
        """``unpack_lanes``: one result ciphertext per request, class ``c``
        in coefficient ``c`` and nothing past the classes."""
        results = handle.ecall("unpack_lanes", strided, 4, self.LAYOUT)
        assert results.batch_shape == (4,)
        plain = handle._instance._decryptor.decrypt(results)
        assert not plain.coeffs[:, 12:].any()
        return plain.signed_coeffs()[:, :12].reshape(4, 3, 2, 2)

    def test_crossing_then_unpack_restores_rows(self, lane_deployment):
        from repro.he.batching import read_lanes

        handle, folded, rows, _ = lane_deployment
        crossed = handle.ecall("activation_pool_lanes", folded, 4, *self.IDENTITY)
        assert crossed.batch_shape == (1, 3, 2, 2)
        plain = handle._instance._decryptor.decrypt(crossed)
        assert np.array_equal(read_lanes(plain, 4), np.maximum(rows, 0))

    def test_pack_then_unpack_restores_rows(self, lane_deployment):
        handle, _folded, rows, encryptor = lane_deployment
        assert np.array_equal(self.unpack(handle, self.strided(encryptor, rows)), rows)

    def test_unpack_refuses_what_is_not_a_logit_batch(self, lane_deployment):
        handle, folded, _rows, _ = lane_deployment
        with pytest.raises(PipelineError, match=r"must be \(4, 1\) class-strided"):
            handle.ecall("unpack_lanes", folded, 4, self.LAYOUT)

    def test_crossing_activates_and_pools_every_lane(self, lane_deployment):
        handle, folded, rows, _ = lane_deployment
        crossed = handle.ecall(
            "activation_pool_lanes", folded, 4, 8.0, 100, 2, "sigmoid", "mean"
        )
        assert crossed.batch_shape == (1, 3, 1, 1)
        pooled = Sigmoid.apply(rows / 8.0).reshape(4, 3, -1).mean(axis=-1)
        got = handle._instance._decryptor.decrypt(crossed).signed_coeffs()
        assert np.array_equal(got[0, :, 0, 0, :4].T, np.rint(pooled * 100))
        assert not got[..., 4:].any()

    def call(self, deployment, name, batch):
        handle, folded, rows, encryptor = deployment
        if name == "activation_pool_lanes":
            return handle.ecall(name, folded, batch, *self.IDENTITY)
        return handle.ecall(name, self.strided(encryptor, rows), batch, self.LAYOUT)

    @pytest.mark.parametrize("name", ["activation_pool_lanes", "unpack_lanes"])
    @pytest.mark.parametrize("batch", [0, -1, 257])
    def test_bad_batch_is_a_typed_pipeline_error(self, lane_deployment, name, batch):
        match = r"batch must be in \[1, 256\]" if name != "unpack_lanes" else "class-strided"
        with pytest.raises(PipelineError, match=match):
            self.call(lane_deployment, name, batch)

    @pytest.mark.parametrize("name", ["activation_pool_lanes", "unpack_lanes"])
    def test_too_small_batch_is_a_typed_pipeline_error(self, lane_deployment, name):
        """A host that under-reports the batch leaves non-zero coefficients
        past the lanes, or an fc result of another shape: typed, never a
        silently truncated flush."""
        match = "not lane-encoded" if name != "unpack_lanes" else "class-strided"
        with pytest.raises(PipelineError, match=match):
            self.call(lane_deployment, name, 3)

    def test_out_of_range_values_rejected(self, lane_deployment, hybrid_params):
        handle, folded, _rows, _ = lane_deployment
        with pytest.raises(PipelineError, match="plaintext range"):
            handle.ecall(
                "activation_pool_lanes", folded, 4,
                1.0, hybrid_params.plain_modulus, 1, "relu", "mean",
            )
