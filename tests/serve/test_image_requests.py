"""The served request format: one image per polynomial, pixel ``(i, j)`` in
coefficient ``i*W + j``.  Both serving paths equal the plaintext reference
across the flush's block boundaries at two ring degrees, and whatever
breaks the layout outside the enclave -- a batch declared smaller than the
one folded, a noise-exhausted conv output, a stray coefficient past an
image -- fails typed and resolves every ticket, never wrong logits, at
the one crossing that also computes fc and re-encrypts the result."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient
from repro.core import EdgeServer, PlaintextPipeline, heops, parameters_for_pipeline
from repro.errors import EncodingError, PipelineError, RequestFailedError
from repro.faults import EnclaveSupervisor
from repro.he import Evaluator
from repro.he.context import Ciphertext, Plaintext
from repro.nn.quantize import QuantizedCNN, QuantizedConvBlock
from repro.serve import InferenceRequest
from repro.sgx import AttestationVerificationService


def integer_model(side: int, filters: int = 2) -> QuantizedCNN:
    """``side x side x 1`` -> conv3 (``filters`` filters) -> sigmoid +
    mean-pool 2 -> 10 classes, integer weights from a fixed seed (no
    training)."""
    rng = np.random.default_rng(side)
    pooled = (side - 2) // 2
    block = QuantizedConvBlock(
        weight=rng.integers(-4, 5, size=(filters, 1, 3, 3)),
        bias=rng.integers(-3, 4, size=(filters,)),
        weight_scale=4.0,
        stride=1,
        activation="sigmoid",
        pool="mean",
        pool_window=2,
        act_scale=15,
    )
    return QuantizedCNN(
        blocks=[block],
        dense_weight=rng.integers(-4, 5, size=(filters * pooled * pooled, 10)),
        dense_bias=rng.integers(-3, 4, size=(10,)),
        dense_weight_scale=4.0,
        input_scale=15,
    )


#: Ring degree -> image side: 12 x 12 at n = 1024 folds 7 images per
#: ciphertext (the benchmark's shape), 10 x 10 at n = 256 folds 2.
SIDES = {256: 10, 1024: 12}


@pytest.fixture(scope="module")
def deployment():
    built = {}

    def get(n: int):
        if n not in built:
            model = integer_model(SIDES[n])
            server = EdgeServer(parameters_for_pipeline(model, n, batching=True), seed=13)
            server.provision_model("m", model)
            verifier = AttestationVerificationService()
            verifier.register_platform(server.quoting)
            session = AttestedClient(server, verifier, b"\x42" * 32).establish().session
            images = np.random.default_rng(n).random((16, 1, SIDES[n], SIDES[n]))
            expected = PlaintextPipeline(model).infer(images).logits
            built[n] = server, session, images, expected
        return built[n]

    return get


def submit_singles(server, session, images, model="m"):
    return [
        server.scheduler.submit(model, session.encrypt(model, images[i : i + 1]))
        for i in range(len(images))
    ]


class TestEquivalence:
    @pytest.mark.parametrize("batch", [1, 3, 7, 8, 16])
    @pytest.mark.parametrize("path", ["direct", "packed"])
    @pytest.mark.parametrize("n", sorted(SIDES))
    def test_logits_equal_the_plaintext_reference(self, deployment, n, path, batch):
        server, session, images, expected = deployment(n)
        per = server.params.poly_degree // SIDES[n] ** 2
        assert per == {256: 2, 1024: 7}[n]
        if path == "direct":
            request = session.encrypt("m", images[:batch])
            assert request.batch_shape == (batch, 1)
            results = [server.infer(InferenceRequest(model="m", ciphertext=request))]
        else:
            responses = submit_singles(server, session, images[:batch])
            server.scheduler.drain()
            results = [response.result() for response in responses]
        logits = np.concatenate([session.decrypt_logits(r) for r in results])
        assert np.array_equal(logits, expected[:batch])

    def test_client_refuses_what_the_model_does_not_consume(self, deployment):
        _, session, images, _ = deployment(256)
        for bad in (images[:1, :, :8, :8], images[:1, 0], np.zeros((1, 2, 10, 10))):
            with pytest.raises(EncodingError, match=r"consumes \(B, 1, 10, 10\)"):
                session.encrypt("m", bad)


class TestTypedImageCheck:
    def test_folded_at_seven_declared_as_five(self, deployment, monkeypatch):
        """A host that folds seven images into one ciphertext and tells the
        crossing five: blocks 5 and 6 are past every declared image's
        reach, so the flush fails typed, isolates, and each request's
        one-image re-run resolves its ticket with the right logits."""
        server, session, images, expected = deployment(1024)
        original = EnclaveSupervisor.ecall
        raised = []

        def under_report(self, name, *args, **kwargs):
            if name == "activation_pool" and kwargs.get("batch") == 7:
                kwargs = {**kwargs, "batch": 5}
            try:
                return original(self, name, *args, **kwargs)
            except PipelineError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(EnclaveSupervisor, "ecall", under_report)
        stats = server.scheduler.stats
        before = (stats.isolations, stats.isolated_requests, stats.failed)
        responses = submit_singles(server, session, images[:7])
        server.scheduler.drain()
        assert len(raised) == 1 and "no image reaches" in str(raised[0])
        after = (stats.isolations, stats.isolated_requests, stats.failed)
        assert np.subtract(after, before).tolist() == [1, 7, 0]
        for i, response in enumerate(responses):
            assert np.array_equal(session.decrypt_logits(response.result()), expected[i : i + 1])

    def test_noise_exhausted_conv_output(self, server, session, models, monkeypatch):
        """Every coefficient of an overflowed conv output decodes uniformly:
        the range probe (``|v| <=`` the model's conv bound) refuses it on
        the direct path.  (A flush's tickets fail typed the same way:
        ``test_lane_flush.py::TestTypedLaneCheck``.)"""
        conv = heops.he_conv2d

        def exhaust(*args):
            out = conv(*args)
            data = out.data
            for _ in range(3):  # x 2^60: past any budget of this q
                data = out.context.ring.mul_scalar(data, 1 << 20)
            return Ciphertext(out.context, data, is_ntt=True)

        monkeypatch.setattr(heops, "he_conv2d", exhaust)
        images = models.dataset.test_images[:2]
        request = InferenceRequest(model="digits", ciphertext=session.encrypt("digits", images))
        with pytest.raises(PipelineError, match="conv bound"):
            server.infer(request)

    def test_stray_coefficient_past_the_image(self, server, session, q_sigmoid, models):
        """A value past ``H*W`` lands, after conv, in coefficients no image
        reaches: the direct path refuses it typed, and as the last image of
        a flush it fails only its own ticket after isolation.  (Co-packed
        before a neighbour it would bleed into that neighbour's block --
        DESIGN.md §6.)"""
        images = models.dataset.test_images[:3]
        _, h, w = q_sigmoid.input_shape
        stray = np.zeros((1, 1, session.context.poly_degree), dtype=np.int64)
        stray[..., h * w + 2 * (w + 1)] = 1  # the first coefficient past the reach
        evaluator = Evaluator(session.context)

        def tampered(i):
            ct = session.encrypt("digits", images[i : i + 1])
            return evaluator.add_plain(ct, Plaintext(session.context, stray))

        with pytest.raises(PipelineError, match="no image reaches"):
            server.infer(InferenceRequest(model="digits", ciphertext=tampered(0)))
        clean = submit_singles(server, session, images[:2], "digits")
        bad = server.scheduler.submit("digits", tampered(2))
        server.scheduler.drain()
        assert server.scheduler.stats.isolations == 1
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        for i, response in enumerate(clean):
            assert np.array_equal(session.decrypt_logits(response.result()), expected[i : i + 1])
        with pytest.raises(RequestFailedError) as excinfo:
            bad.result()
        assert "no image reaches" in str(excinfo.value.__cause__)


class TestTypedResultCrossing:
    """The activation crossing is also the result crossing: it computes fc
    on what it pooled and re-encrypts the logits, so a conv output whose
    layout the host broke -- a coefficient past a co-packed image's reach, a
    result of the wrong shape -- fails typed there, never a plausible
    logit."""

    @staticmethod
    def tampering(monkeypatch, tamper):
        conv = heops.he_conv2d
        monkeypatch.setattr(heops, "he_conv2d", lambda *args: tamper(conv(*args)))

    def test_stray_past_the_reach_of_a_co_packed_image(
        self, server, session, q_sigmoid, models, monkeypatch
    ):
        """The crossing probes every row's reach, not only the last one's:
        a stray coefficient past row 0's two images (10 x 10 at n = 256, P
        = 2) fails a three-image flush typed, and the one-image re-runs
        resolve every ticket with the reference logits."""
        images = models.dataset.test_images[:3]
        stray = np.zeros((2, 2, session.context.poly_degree), dtype=np.int64)
        stray[0, 1, 230] = 1  # past 2 * 100 pixels + the 22-coefficient spill
        evaluator = Evaluator(session.context)

        def tamper(out):
            if out.batch_shape[0] != 2:  # the re-runs: one image per row
                return out
            return evaluator.add_plain(out, Plaintext(session.context, stray))

        original = EnclaveSupervisor.ecall
        raised = []

        def spy(self, name, *args, **kwargs):
            try:
                return original(self, name, *args, **kwargs)
            except PipelineError as exc:
                raised.append((name, exc))
                raise

        self.tampering(monkeypatch, tamper)
        monkeypatch.setattr(EnclaveSupervisor, "ecall", spy)
        responses = submit_singles(server, session, images, "digits")
        server.scheduler.drain()
        ((name, exc),) = raised
        assert name == "activation_pool" and "no image reaches" in str(exc)
        stats = server.scheduler.stats
        assert (stats.isolations, stats.isolated_requests, stats.failed) == (1, 3, 0)
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        for i, response in enumerate(responses):
            assert np.array_equal(session.decrypt_logits(response.result()), expected[i : i + 1])

    def test_result_of_the_wrong_shape(self, server, session, models, monkeypatch):
        """A conv output missing a filter pools fewer features than fc
        takes; one flattened to a single batch axis is no image layout."""
        images = models.dataset.test_images[:2]
        request = InferenceRequest(
            model="digits", ciphertext=session.encrypt("digits", images)
        )
        for tamper, match in (
            (lambda out: out[:, :1], "fc takes"),
            (lambda out: out.reshape(-1), r"\(rows, F\) polynomials"),
        ):
            with monkeypatch.context() as patch:
                self.tampering(patch, tamper)
                with pytest.raises(PipelineError, match=match):
                    server.infer(request)
