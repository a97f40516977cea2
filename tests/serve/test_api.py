"""The canonical serving API surface: frozen InferenceRequest validation,
the InferenceResult alias, and ``EdgeServer.infer`` taking exactly one
request."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import PlaintextPipeline
from repro.core.server import ServedResult
from repro.errors import PipelineError, ServeError
from repro.serve import InferenceRequest, InferenceResult


class TestInferenceRequest:
    def test_frozen(self, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        request = InferenceRequest(model="digits", ciphertext=ct)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.pack = True

    def test_validation(self, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        with pytest.raises(ServeError):
            InferenceRequest(model="", ciphertext=ct)
        with pytest.raises(ServeError):
            InferenceRequest(model="digits", ciphertext=ct, context="not-a-context")

    def test_fields_are_exactly_the_ones_something_reads(self):
        """Time-based policy lives on ``ServingLoop.submit``; a request
        carries nothing the facade and the scheduler do not consume."""
        assert {f.name for f in dataclasses.fields(InferenceRequest)} == {
            "model", "ciphertext", "pack", "context",
        }

    def test_served_result_is_the_inference_result(self):
        assert ServedResult is InferenceResult


class TestCanonicalInfer:
    def test_request_form_serves_without_warning(
        self, server, session, models, q_sigmoid, recwarn
    ):
        images = models.dataset.test_images[:2]
        request = InferenceRequest(
            model="digits", ciphertext=session.encrypt("digits", images)
        )
        result = server.infer(request)
        assert not [w for w in recwarn if w.category is DeprecationWarning]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(session.decrypt_logits(result), expected)
        assert result.replica == 0

    def test_request_form_rejects_extra_arguments(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        request = InferenceRequest(model="digits", ciphertext=ct)
        with pytest.raises(TypeError):
            server.infer(request, ct)
        with pytest.raises(TypeError):
            server.infer(request, pack=True)
        # The keyword form removed in PR 13 is refused with a typed error,
        # not an AttributeError deep inside the serving path.
        with pytest.raises(PipelineError, match="InferenceRequest"):
            server.infer("digits")
