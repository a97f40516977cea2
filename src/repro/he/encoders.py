"""The plaintext encoder.

:class:`ScalarEncoder` stores a value in the constant coefficient of the
plaintext ring ``R_t``.  This is the encoding every pipeline uses for pixels
and quantized weights: additions and multiplications of ciphertexts then
mirror integer arithmetic mod ``t`` exactly.  It is batched: array inputs
encode to plaintexts with matching leading axes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError
from repro.he.context import Context, Plaintext


class ScalarEncoder:
    """Constant-coefficient encoding of integers modulo ``t``.

    Values must lie in the centered range ``(-t/2, t/2]``; decode returns
    centered values, so round-tripping preserves sign.
    """

    def __init__(self, context: Context) -> None:
        self.context = context

    def encode(self, values: np.ndarray | int) -> Plaintext:
        values = np.asarray(values, dtype=np.int64)
        t = self.context.plain_modulus
        limit = t // 2
        if (np.abs(values) > limit).any():
            raise EncodingError(
                f"values exceed the centered plaintext range +-{limit} (t={t}); "
                "requantize with a smaller scale or enlarge plain_modulus"
            )
        coeffs = np.zeros((*values.shape, self.context.poly_degree), dtype=np.int64)
        coeffs[..., 0] = values % t
        return Plaintext(self.context, coeffs)

    def decode(self, plain: Plaintext) -> np.ndarray:
        self.context.check_same(plain.context)
        rest = plain.coeffs[..., 1:]
        if rest.any():
            raise EncodingError(
                "plaintext has non-constant coefficients; it was not produced "
                "by ScalarEncoder (or the computation overflowed the slot)"
            )
        return plain.signed_coeffs()[..., 0].copy()

