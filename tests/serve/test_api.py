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
            InferenceRequest(model="digits", ciphertext=ct, deadline_ms=5.0)
        with pytest.raises(ServeError):
            InferenceRequest(model="digits", ciphertext=ct, pack=True, deadline_ms=-1)
        with pytest.raises(ServeError):
            InferenceRequest(model="digits", ciphertext=ct, priority=-1)
        with pytest.raises(ServeError):
            InferenceRequest(model="digits", ciphertext=ct, slo_deadline_ms=0.0)

    def test_unit_conversions(self, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        request = InferenceRequest(
            model="digits", ciphertext=ct, pack=True, deadline_ms=5.0,
            slo_deadline_ms=40.0,
        )
        assert request.deadline_s == pytest.approx(0.005)
        assert request.slo_deadline_s == pytest.approx(0.040)

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
