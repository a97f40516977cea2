"""Byte-level serialization of FV key material and ciphertexts.

Needed wherever crypto objects cross a trust boundary as raw bytes: the
attested key-delivery channel (paper Section IV-A) and sealed storage.
The format is a small header (magic, CRC32, kind, shape) followed by
little-endian int64 payload; both ends must agree on the encryption
context, which is re-attached on load.

Payloads cross trust boundaries, so the parser is hardened: every load
verifies the CRC before touching the body, and malformed bytes -- bad
magic, truncation, flipped bits, absurd shapes -- raise a typed
:class:`~repro.errors.SerializationError` rather than returning garbage or
dying inside ``struct``/``numpy``.  ``tests/he/test_serialize_fuzz.py``
drives this contract with seeded random corruption.
"""

from __future__ import annotations

import struct
import sys
import zlib

import numpy as np

from repro import faults
from repro.errors import SerializationError
from repro.he.context import Ciphertext, Context
from repro.he.keys import PublicKey, RelinKeys, SecretKey

_MAGIC = b"RPRO"
_KIND_SECRET = 1
_KIND_PUBLIC = 2
_KIND_RELIN = 3
_KIND_CIPHER = 4
_KIND_ARRAYS = 5

# magic | crc32(rest) | kind, count, extra
_CRC_OFFSET = len(_MAGIC)
_BODY_OFFSET = _CRC_OFFSET + 4
_FIELDS = "<BBI"
_HEADER_LEN = _BODY_OFFSET + struct.calcsize(_FIELDS)
_MAX_NDIM = 8


#: Zero-copy payloads require the wire byte order; big-endian hosts always
#: take the converting fallback.
_NATIVE_IS_WIRE = sys.byteorder == "little"


def _array_payload(arr: np.ndarray) -> "bytes | memoryview":
    """The array's wire bytes -- a zero-copy ``memoryview`` when the array
    is already a contiguous little-endian int64 block (any freshly-built
    ciphertext data), else the converting copy."""
    if (
        _NATIVE_IS_WIRE
        and isinstance(arr, np.ndarray)
        and arr.ndim >= 1
        and arr.dtype == np.int64
        and arr.dtype.byteorder in ("=", "|", "<")
        and arr.flags.c_contiguous
    ):
        return arr.view(np.uint8).reshape(-1).data
    return np.ascontiguousarray(arr, dtype=np.int64).tobytes()


def _pack(kind: int, arrays: list[np.ndarray], extra: int = 0) -> bytes:
    parts: list[bytes | memoryview] = [struct.pack(_FIELDS, kind, len(arrays), extra)]
    for arr in arrays:
        arr = np.asarray(arr)  # dtype conversion (if any) never changes shape
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}q", *arr.shape))
        parts.append(_array_payload(arr))
    body = b"".join(parts)
    return _MAGIC + struct.pack("<I", zlib.crc32(body)) + body


def _unpack(data: bytes, expected_kind: int) -> tuple[list[np.ndarray], int]:
    if len(data) < _HEADER_LEN:
        raise SerializationError(
            f"truncated payload: {len(data)} bytes, header needs {_HEADER_LEN}"
        )
    if data[:_CRC_OFFSET] != _MAGIC:
        raise SerializationError("not a repro-serialized object (bad magic)")
    (crc,) = struct.unpack_from("<I", data, _CRC_OFFSET)
    if zlib.crc32(data[_BODY_OFFSET:]) != crc:
        raise SerializationError(
            "payload failed its integrity check (truncated or bit-flipped)"
        )
    try:
        kind, count, extra = struct.unpack_from(_FIELDS, data, _BODY_OFFSET)
        if kind != expected_kind:
            raise SerializationError(
                f"expected object kind {expected_kind}, found {kind}"
            )
        offset = _HEADER_LEN
        arrays = []
        for _ in range(count):
            (ndim,) = struct.unpack_from("<B", data, offset)
            offset += 1
            if ndim > _MAX_NDIM:
                raise SerializationError(f"implausible array rank {ndim}")
            shape = struct.unpack_from(f"<{ndim}q", data, offset)
            offset += 8 * ndim
            if any(dim < 0 for dim in shape):
                raise SerializationError(f"negative dimension in shape {shape}")
            size = int(np.prod(shape, dtype=object)) * 8
            if offset + size > len(data):
                raise SerializationError(
                    f"array body of {size} bytes overruns a {len(data)}-byte payload"
                )
            arr = np.frombuffer(data[offset : offset + size], dtype="<i8").reshape(shape)
            offset += size
            arrays.append(arr.astype(np.int64))
        if offset != len(data):
            raise SerializationError(
                f"{len(data) - offset} trailing bytes after the last array"
            )
    except (struct.error, ValueError, OverflowError) as exc:
        raise SerializationError(f"malformed payload: {exc}") from exc
    return arrays, extra


def _maybe_corrupt(data: bytes, what: str) -> bytes:
    """Apply the armed plan's ``bitflip``/``truncate`` action to a payload
    about to be parsed (a fault in the untrusted channel, not the parser)."""
    event = faults.poll("he.serialize.deserialize", name=what, bytes=len(data))
    if event is None:
        return data
    if event.rule.error is not None:
        raise event.rule.error(
            f"injected serialization fault for {what} (hit {event.hit}, fire {event.fire})"
        )
    if event.rule.action == "truncate":
        # Deterministic cut somewhere inside the payload, never empty.
        cut = 1 + (event.hit * 7919) % max(1, len(data) - 1)
        return data[:cut]
    # Default corruption: flip one deterministic bit of the body.
    position = (event.hit * 104729) % len(data)
    flipped = bytearray(data)
    flipped[position] ^= 1 << (event.hit % 8)
    return bytes(flipped)


def _load(data: bytes, expected_kind: int, what: str) -> tuple[list[np.ndarray], int]:
    if faults.is_armed():
        data = _maybe_corrupt(data, what)
    return _unpack(data, expected_kind)


def serialize_secret_key(key: SecretKey) -> bytes:
    return _pack(_KIND_SECRET, [key.s_ntt])


def deserialize_secret_key(data: bytes, context: Context) -> SecretKey:
    arrays, _ = _load(data, _KIND_SECRET, "secret_key")
    return SecretKey(context, arrays[0])


def serialize_public_key(key: PublicKey) -> bytes:
    return _pack(_KIND_PUBLIC, [key.p0_ntt, key.p1_ntt])


def deserialize_public_key(data: bytes, context: Context) -> PublicKey:
    arrays, _ = _load(data, _KIND_PUBLIC, "public_key")
    if len(arrays) != 2:
        raise SerializationError(f"public key needs 2 arrays, found {len(arrays)}")
    return PublicKey(context, arrays[0], arrays[1])


def serialize_relin_keys(keys: RelinKeys) -> bytes:
    return _pack(_KIND_RELIN, [keys.key0_ntt, keys.key1_ntt], extra=keys.decomposition_bits)


def deserialize_relin_keys(data: bytes, context: Context) -> RelinKeys:
    arrays, extra = _load(data, _KIND_RELIN, "relin_keys")
    if len(arrays) != 2:
        raise SerializationError(f"relin keys need 2 arrays, found {len(arrays)}")
    return RelinKeys(context, arrays[0], arrays[1], decomposition_bits=extra)


def serialize_int64_arrays(arrays: list[np.ndarray], extra: int = 0) -> bytes:
    """Pack a list of int64 arrays in the library's wire format.

    For payloads that cross a trust boundary but are not key material --
    e.g. a quantized model inside a sealed blob -- so that no ``pickle``
    deserialization ever runs on untrusted bytes.
    """
    return _pack(_KIND_ARRAYS, arrays, extra=extra)


def deserialize_int64_arrays(data: bytes) -> tuple[list[np.ndarray], int]:
    """Inverse of :func:`serialize_int64_arrays`; returns ``(arrays, extra)``."""
    return _load(data, _KIND_ARRAYS, "int64_arrays")


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    return _pack(_KIND_CIPHER, [ct.data], extra=1 if ct.is_ntt else 0)


def deserialize_ciphertext(data: bytes, context: Context) -> Ciphertext:
    arrays, extra = _load(data, _KIND_CIPHER, "ciphertext")
    if len(arrays) != 1:
        raise SerializationError(f"ciphertext needs 1 array, found {len(arrays)}")
    return Ciphertext(context, arrays[0], is_ntt=bool(extra))
