"""Serialization round-trips for key material and ciphertexts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.he import serialize as ser


class TestKeyRoundTrips:
    def test_secret_key(self, context, keypair, decryptor, encryptor, encoder):
        blob = ser.serialize_secret_key(keypair.secret)
        restored = ser.deserialize_secret_key(blob, context)
        assert np.array_equal(restored.s_ntt, keypair.secret.s_ntt)
        # A decryptor built from the restored key actually works.
        from repro.he import Decryptor

        ct = encryptor.encrypt(encoder.encode(77))
        assert encoder.decode(Decryptor(context, restored).decrypt(ct)) == 77

    def test_public_key(self, context, keypair, encoder, decryptor):
        blob = ser.serialize_public_key(keypair.public)
        restored = ser.deserialize_public_key(blob, context)
        from repro.he import Encryptor

        ct = Encryptor(context, restored, np.random.default_rng(5)).encrypt(
            encoder.encode(-12)
        )
        assert encoder.decode(decryptor.decrypt(ct)) == -12

    def test_relin_keys(self, context, relin_keys, encryptor, decryptor, encoder, evaluator):
        blob = ser.serialize_relin_keys(relin_keys)
        restored = ser.deserialize_relin_keys(blob, context)
        assert restored.decomposition_bits == relin_keys.decomposition_bits
        ct = evaluator.square(encryptor.encrypt(encoder.encode(9)))
        relined = evaluator.relinearize(ct, restored)
        assert encoder.decode(decryptor.decrypt(relined)) == 81


class TestCiphertextRoundTrip:
    def test_scalar(self, context, encryptor, decryptor, encoder):
        ct = encryptor.encrypt(encoder.encode(31))
        restored = ser.deserialize_ciphertext(ser.serialize_ciphertext(ct), context)
        assert restored.is_ntt == ct.is_ntt
        assert encoder.decode(decryptor.decrypt(restored)) == 31

    def test_batched_coeff_domain(self, context, encryptor, decryptor, encoder, rng):
        values = rng.integers(-9, 9, size=(2, 3))
        ct = encryptor.encrypt(encoder.encode(values)).to_coeff()
        restored = ser.deserialize_ciphertext(ser.serialize_ciphertext(ct), context)
        assert not restored.is_ntt
        assert np.array_equal(encoder.decode(decryptor.decrypt(restored)), values)


class TestZeroCopyPayload:
    """Contiguous int64 arrays go to the wire as buffer slices, never
    through ``ascontiguousarray``."""

    def test_contiguous_array_payload_is_a_memoryview(self, rng):
        arr = rng.integers(-(1 << 40), 1 << 40, size=(3, 4, 5)).astype(np.int64)
        payload = ser._array_payload(arr)
        assert isinstance(payload, memoryview)
        assert bytes(payload) == arr.tobytes()

    def test_non_contiguous_array_falls_back_to_copy(self, rng):
        arr = rng.integers(-100, 100, size=(4, 6)).astype(np.int64)
        transposed = arr.T
        assert not transposed.flags.c_contiguous
        payload = ser._array_payload(transposed)
        assert isinstance(payload, bytes)
        assert payload == np.ascontiguousarray(transposed).tobytes()

    def test_serialize_makes_no_copies_for_contiguous_data(
        self, context, encryptor, encoder, monkeypatch
    ):
        """Pinned no-copy regression: serializing a freshly-built ciphertext
        (contiguous int64 data) must not call ``ascontiguousarray`` at all,
        and the blob must equal the copying path's byte-for-byte."""
        ct = encryptor.encrypt(encoder.encode(55)).to_ntt()
        reference = ser.serialize_ciphertext(ct)
        calls = []
        real = np.ascontiguousarray

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ser.np, "ascontiguousarray", spy)
        blob = ser.serialize_ciphertext(ct)
        assert calls == []
        assert blob == reference

    def test_fortran_order_data_still_serializes_identically(self, rng):
        values = rng.integers(-50, 50, size=(3, 4)).astype(np.int64)
        fortran = np.asfortranarray(values)
        assert ser.serialize_int64_arrays([fortran]) == ser.serialize_int64_arrays(
            [np.ascontiguousarray(values)]
        )


class TestFormatSafety:
    def test_bad_magic_rejected(self, context):
        with pytest.raises(ParameterError):
            ser.deserialize_secret_key(b"XXXX" + bytes(64), context)

    def test_kind_mismatch_rejected(self, context, keypair):
        blob = ser.serialize_secret_key(keypair.secret)
        with pytest.raises(ParameterError):
            ser.deserialize_public_key(blob, context)
