"""Error hierarchy and small cross-cutting behaviours."""

from __future__ import annotations

import numpy as np
import pytest

from repro import errors


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.ParameterError,
        errors.EncodingError,
        errors.NoiseBudgetExhausted,
        errors.KeyMismatchError,
        errors.EnclaveError,
        errors.EnclaveMemoryError,
        errors.EnclaveNotInitialized,
        errors.AttestationError,
        errors.SealingError,
        errors.ModelError,
        errors.PipelineError,
    ]

    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_dual_inheritance_for_stdlib_catches(self):
        # Library users catching stdlib categories still see our errors.
        assert issubclass(errors.ParameterError, ValueError)
        assert issubclass(errors.NoiseBudgetExhausted, ArithmeticError)
        assert issubclass(errors.EnclaveMemoryError, MemoryError)
        assert issubclass(errors.EnclaveError, RuntimeError)

    def test_one_except_clause_catches_everything(self):
        caught = []
        for exc in self.ALL_ERRORS:
            try:
                raise exc("boom")
            except errors.ReproError as e:
                caught.append(e)
        assert len(caught) == len(self.ALL_ERRORS)


class TestPlaintextNormalization:
    def test_negative_coeffs_reduced_mod_t(self, context):
        from repro.he import Plaintext

        coeffs = np.zeros(context.poly_degree, dtype=np.int64)
        coeffs[0] = -1
        plain = Plaintext(context, coeffs)
        assert plain.coeffs[0] == context.plain_modulus - 1
        assert plain.signed_coeffs()[0] == -1

    def test_oversized_coeffs_wrapped(self, context):
        from repro.he import Plaintext

        coeffs = np.full(context.poly_degree, context.plain_modulus + 3, dtype=np.int64)
        plain = Plaintext(context, coeffs)
        assert (plain.coeffs == 3).all()

    def test_byte_size(self, context):
        from repro.he import Plaintext

        plain = Plaintext(context, np.zeros(context.poly_degree, dtype=np.int64))
        assert plain.byte_size() == context.poly_degree * 8


class TestEncodedWeightAccessors:
    def test_conv_weight_table(self, context):
        from repro.core import encode_conv_weights
        from repro.he import Evaluator, ScalarEncoder

        evaluator, encoder = Evaluator(context), ScalarEncoder(context)
        w = np.ones((3, 2, 4, 4), dtype=np.int64)
        table = encode_conv_weights(evaluator, encoder, w, np.zeros(3, dtype=np.int64), 2)
        assert table.out_channels == 3
        assert table.kernel_size == 4
        assert table.stride == 2

    def test_dense_weight_table(self, context):
        from repro.core import encode_dense_weights
        from repro.he import Evaluator, ScalarEncoder

        evaluator, encoder = Evaluator(context), ScalarEncoder(context)
        w = np.ones((6, 4), dtype=np.int64)
        table = encode_dense_weights(evaluator, encoder, w, np.zeros(4, dtype=np.int64))
        assert table.out_features == 4


class TestPackageSurface:
    def test_version_defined(self):
        import repro

        assert repro.__version__

    def test_public_api_importable(self):
        # Everything a package advertises in __all__ must resolve.
        import importlib
        import pkgutil

        import repro

        packages = [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        exporting = {m.__name__ for m in packages if hasattr(m, "__all__")}
        names = ("he", "sgx", "nn", "core", "obs", "serve", "graph", "client", "faults", "bench")
        assert exporting >= {f"repro.{name}" for name in names}
        for module in packages:
            for name in getattr(module, "__all__", ()):
                assert getattr(module, name) is not None, f"{module.__name__}.{name}"
