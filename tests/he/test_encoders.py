"""ScalarEncoder round-trips and range checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.he import ScalarEncoder


class TestScalarEncoder:
    def test_roundtrip(self, context):
        encoder = ScalarEncoder(context)
        for v in (0, 1, -1, 1000, -32768, 32768):
            assert encoder.decode(encoder.encode(v)) == v

    def test_array_roundtrip(self, context, rng):
        encoder = ScalarEncoder(context)
        values = rng.integers(-30000, 30000, size=(3, 4))
        assert np.array_equal(encoder.decode(encoder.encode(values)), values)

    def test_rejects_out_of_range(self, context):
        encoder = ScalarEncoder(context)
        with pytest.raises(EncodingError):
            encoder.encode(context.plain_modulus)

    def test_decode_rejects_polluted_plaintext(self, context):
        encoder = ScalarEncoder(context)
        plain = encoder.encode(5)
        plain.coeffs[..., 3] = 1
        with pytest.raises(EncodingError):
            encoder.decode(plain)

    @given(st.integers(min_value=-32768, max_value=32768))
    def test_roundtrip_property(self, context, v):
        encoder = ScalarEncoder(context)
        assert encoder.decode(encoder.encode(v)) == v

