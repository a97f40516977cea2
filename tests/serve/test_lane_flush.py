"""The packed flush is the direct path's chain behind a host fold: typed
layout checks at its one crossing, equivalence with the unpacked
``served`` graph across batch sizes / the oracle context / recovery, the one-ciphertext-per-image result both paths return, and
DESIGN.md §6's claims on the serving path."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import faults
from repro.core import EdgeServer, PlaintextPipeline, heops
from repro.errors import EncodingError, PipelineError, RecoveryExhausted, RequestFailedError
from repro.faults import EnclaveSupervisor, FaultPlan, FaultRule
from repro.he import Evaluator, oracle
from repro.he.context import Ciphertext, Context, Plaintext
from repro.he.evaluator import PlainOperand
from repro.he.serialize import serialize_ciphertext, serialize_secret_key
from repro.serve import InferenceRequest, ServeConfig

SERVING_ECALLS = ["activation_pool"]


def submit_singles(server, session, images):
    return [
        server.scheduler.submit("digits", session.encrypt("digits", images[i : i + 1]))
        for i in range(len(images))
    ]


def fresh_deployment(params, model, session_for, context_type=Context, **config):
    srv = EdgeServer(
        params, seed=13, serve_config=ServeConfig(**config), context_type=context_type
    )
    srv.provision_model("digits", model)
    session = session_for(srv)
    session.encryptor.rng = np.random.default_rng(5)  # pin client HE noise
    return srv, session


def assert_every_ticket_failed_typed(server, responses, match):
    assert server.scheduler.queue_depth == 0
    for response in responses:
        assert response.done()
        with pytest.raises(RequestFailedError) as excinfo:
            response.result()
        assert isinstance(excinfo.value.__cause__, PipelineError)
        assert match in str(excinfo.value.__cause__)
    assert server.scheduler.stats.served == 0
    assert server.scheduler.stats.failed == len(responses)


class TestTypedLaneCheck:
    """Coefficients no declared image reaches must decrypt to zero at the
    flush's crossing: whatever breaks the layout outside the enclave
    fails the flush typed and resolves every ticket -- never silently wrong
    logits."""

    def test_host_passing_a_too_small_batch(self, server, session, models, monkeypatch):
        original = EnclaveSupervisor.ecall
        raised = []

        def under_report(self, name, *args, **kwargs):
            if name == "activation_pool":
                # A B = 1 re-run declares no fold batch: under-reported as 0.
                kwargs = {**kwargs, "batch": (kwargs["batch"] or 1) - 1}
            try:
                return original(self, name, *args, **kwargs)
            except PipelineError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(EnclaveSupervisor, "ecall", under_report)
        responses = submit_singles(server, session, models.dataset.test_images[:3])
        server.scheduler.drain()
        # The flush dies on the fold's batch check, and so does each B = 1
        # re-run.
        assert len(raised) == 4
        assert all("batch must be in" in str(exc) for exc in raised)
        assert_every_ticket_failed_typed(server, responses, "expected values")
        assert server.scheduler.stats.isolations == 1

    def test_bias_spread_past_the_batch(self, server, session, models, monkeypatch):
        """A host that adds the conv bias to every block of a ciphertext,
        whatever the flush holds, leaves non-zero coefficients in the blocks
        past the batch (three images fill one and a half of the n = 256
        fixture's two-image ciphertexts)."""
        image_conv = heops._he_conv2d_image

        def spread(evaluator, ct, weights, folded):
            rows = weights.bias.data
            full = PlainOperand(ct.context, np.repeat(rows[-1:], len(rows), axis=0))
            return image_conv(evaluator, ct, dataclasses.replace(weights, bias=full), folded)

        monkeypatch.setattr(heops, "_he_conv2d_image", spread)
        responses = submit_singles(server, session, models.dataset.test_images[:3])
        server.scheduler.drain()
        assert_every_ticket_failed_typed(server, responses, "not image-encoded")

    def test_noise_exhausted_ciphertext(self, server, session, models, monkeypatch):
        conv = heops.he_conv2d
        seen = []

        def exhaust(evaluator, encoder, ct, weights, folded=1):
            out = conv(evaluator, encoder, ct, weights, folded)
            data = out.data
            for _ in range(3):  # x 2^60: past any budget of this 60-bit q
                data = out.context.ring.mul_scalar(data, 1 << 20)
            seen.append(Ciphertext(out.context, data, is_ntt=True))
            return seen[-1]

        monkeypatch.setattr(heops, "he_conv2d", exhaust)
        responses = submit_singles(server, session, models.dataset.test_images[:2])
        server.scheduler.drain()
        assert not session.decryptor.is_decryptable(seen[0])
        assert_every_ticket_failed_typed(server, responses, "overflowed")


class TestFlushEquivalence:
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_logits_equal_the_served_graph(self, server, session, models, batch):
        images = models.dataset.test_images[:batch]
        cts = [session.encrypt("digits", images[i : i + 1]) for i in range(batch)]
        responses = [server.scheduler.submit("digits", ct) for ct in cts]
        server.scheduler.drain()
        for ct, response in zip(cts, responses):
            served = server.infer(InferenceRequest(model="digits", ciphertext=ct))
            assert np.array_equal(
                session.decrypt_logits(response.result()),
                session.decrypt_logits(served),
            )
            assert response.result().packed_batch == batch

    def _result_bytes(self, params, model, images, session_for, context_type=Context):
        """A flush's per-request results, then one direct two-image result."""
        srv, session = fresh_deployment(
            params, model, session_for, context_type=context_type, max_batch=8
        )
        responses = submit_singles(srv, session, images)
        srv.scheduler.drain()
        results = [r.result() for r in responses]
        direct = session.encrypt("digits", images[:2])
        results.append(srv.infer(InferenceRequest(model="digits", ciphertext=direct)))
        return [bytes(serialize_ciphertext(r.logits_ct)) for r in results]

    def test_result_bytes_identical_across_profiles(
        self, batching_params, q_sigmoid, models, session_for
    ):
        images = models.dataset.test_images[:5]
        reference = self._result_bytes(batching_params, q_sigmoid, images, session_for)
        assert reference == self._result_bytes(
            batching_params, q_sigmoid, images, session_for, oracle.Context
        )

    def test_isolation_rerun_resolves_survivors_bit_identically(
        self, batching_params, q_sigmoid, models, session_for
    ):
        """An ``activation_pool`` crash that outlasts the supervisor's retries
        kills the flush; each request's B = 1 re-run equals what a lone
        ``pack=True`` request produces, byte for byte."""
        images = models.dataset.test_images[:3]
        clean, clean_session = fresh_deployment(batching_params, q_sigmoid, session_for)
        alone = [
            clean.infer(
                InferenceRequest(
                    model="digits",
                    ciphertext=clean_session.encrypt("digits", images[i : i + 1]),
                    pack=True,
                )
            )
            for i in range(3)
        ]
        srv, session = fresh_deployment(batching_params, q_sigmoid, session_for)
        responses = submit_singles(srv, session, images)
        plan = FaultPlan(
            0, rules=[FaultRule(site="sgx.ecall", name="activation_pool", max_fires=3)]
        )
        with faults.armed(plan):
            srv.scheduler.drain()
        assert plan.fires("sgx.ecall") == 3
        stats = srv.scheduler.stats
        assert (stats.isolations, stats.isolated_requests, stats.failed) == (1, 3, 0)
        for i, (response, lone) in enumerate(zip(responses, alone)):
            result = response.result()
            assert result.packed_batch == 1 and result.logits_ct.batch_shape == (1,)
            assert np.array_equal(
                session.decrypt_logits(result), clean_session.decrypt_logits(lone)
            ), i

    def test_unrecoverable_crossing_fails_typed(self, server, session, models):
        responses = submit_singles(server, session, models.dataset.test_images[:2])
        plan = FaultPlan(
            0, rules=[FaultRule(site="sgx.ecall", name="activation_pool", max_fires=None)]
        )
        with faults.armed(plan):
            assert server.scheduler.drain() == 0
        for response in responses:
            with pytest.raises(RequestFailedError) as excinfo:
                response.result()
            assert isinstance(excinfo.value.__cause__, RecoveryExhausted)


class TestResultFormat:
    """A served result is one ciphertext per image -- class ``c`` in
    coefficient ``c``, nothing past the classes -- which the activation
    crossing re-encrypts on the direct path and on a flush alike; the client
    refuses anything else typed, never with wrong logits."""

    @pytest.mark.parametrize(
        "path,batch",
        [("direct", 1), ("direct", 2), ("packed", 1), ("packed", 3), ("packed", 16)],
    )
    def test_one_ciphertext_per_image_decrypting_to_the_reference(
        self, server, session, q_sigmoid, models, path, batch
    ):
        images = models.dataset.test_images[:batch]
        if path == "direct":
            ct = session.encrypt("digits", images)
            results = [server.infer(InferenceRequest(model="digits", ciphertext=ct))]
        else:
            responses = submit_singles(server, session, images)
            server.scheduler.drain()
            results = [response.result() for response in responses]
        for result in results:
            (count,) = result.logits_ct.batch_shape
            # What a fresh encryption of `count` images weighs on the wire.
            fresh = session.encryptor.encrypt_zero(count)
            assert len(serialize_ciphertext(result.logits_ct)) == len(
                serialize_ciphertext(fresh)
            )
        logits = np.concatenate([session.decrypt_logits(r) for r in results])
        assert np.array_equal(logits, PlaintextPipeline(q_sigmoid).infer(images).logits)

    @pytest.fixture()
    def result(self, server, session, models):
        ct = session.encrypt("digits", models.dataset.test_images[:2])
        return server.infer(InferenceRequest(model="digits", ciphertext=ct))

    def test_client_refuses_a_coefficient_past_the_classes(
        self, session, q_sigmoid, result
    ):
        stray = np.zeros((2, session.context.poly_degree), dtype=np.int64)
        stray[1, q_sigmoid.dense_weight.shape[1]] = 1
        tampered = Evaluator(session.context).add_plain(
            result.logits_ct, Plaintext(session.context, stray)
        )
        with pytest.raises(EncodingError, match="not lane-encoded"):
            session.decrypt_logits(dataclasses.replace(result, logits_ct=tampered))

    def test_client_refuses_a_noise_exhausted_result(self, session, result):
        data = result.logits_ct.data
        for _ in range(3):  # x 2^60: past any budget of this 60-bit q
            data = session.context.ring.mul_scalar(data, 1 << 20)
        exhausted = Ciphertext(session.context, data, is_ntt=True)
        assert not session.decryptor.is_decryptable(exhausted)
        with pytest.raises(EncodingError, match="not lane-encoded"):
            session.decrypt_logits(dataclasses.replace(result, logits_ct=exhausted))


class TestThreatModelOnTheServingPath:
    """DESIGN.md §6 on a packed flush and on a direct request: the host
    observes exactly one ECALL whose sizes depend on the public shapes
    ``(C, H, W, B)`` only, and no ECALL hands plaintext or key material
    back -- no fc ciphertext or partial product exists anywhere."""

    @staticmethod
    def _spied(server, monkeypatch, serve):
        returned = []
        original = EnclaveSupervisor.ecall

        def spy(self, name, *args, **kwargs):
            returned.append((name, original(self, name, *args, **kwargs)))
            return returned[-1][1]

        server.enclave.side_channel.reset()
        with monkeypatch.context() as patch:
            patch.setattr(EnclaveSupervisor, "ecall", spy)
            serve()
        return server.enclave.side_channel.trace_signature(), returned

    def _flush(self, server, session, images, monkeypatch):
        responses = []

        def serve():
            responses.extend(submit_singles(server, session, images))
            server.scheduler.drain()

        observed = self._spied(server, monkeypatch, serve)
        assert all(r.done() for r in responses)
        return observed

    def _direct(self, server, session, images, monkeypatch):
        request = InferenceRequest(
            model="digits", ciphertext=session.encrypt("digits", images)
        )
        return self._spied(server, monkeypatch, lambda: server.infer(request))

    @staticmethod
    def _assert_ciphertext_only(session, returned, batch):
        secret = bytes(serialize_secret_key(session.decryptor.secret_key))
        assert [name for name, _ in returned] == SERVING_ECALLS
        for _name, value in returned:
            assert isinstance(value, Ciphertext) and value.batch_shape == (batch,)
            # A real encryption at every position: no transparent (c1 = 0)
            # ciphertext carrying Delta * m in the clear, no key bytes.
            c1 = value.data[..., 1, :, :]
            assert c1.reshape(-1, *c1.shape[-2:]).any(axis=(1, 2)).all()
            assert secret[16:48] not in bytes(serialize_ciphertext(value))

    def _conv_row(self, server, session):
        """What one more conv-output row weighs: ``F`` ciphertexts."""
        filters = server.model("digits").blocks[0].weight.shape[0]
        return session.encryptor.encrypt_zero(filters).byte_size()

    def test_one_crossing_of_public_size_and_ciphertext_only_returns(
        self, server, session, models, monkeypatch
    ):
        images = models.dataset.test_images
        first, returned = self._flush(server, session, images[:4], monkeypatch)
        second, _ = self._flush(server, session, images[4:8], monkeypatch)
        wider, _ = self._flush(server, session, images[:5], monkeypatch)
        assert [(kind, name) for kind, name, _, _ in first] == [
            ("ecall", "activation_pool")
        ]
        assert first == second  # other images, same shapes: same observation
        # B moves only what B sizes: the fold's ceil(B / P) rows of F
        # conv-output ciphertexts (10 x 10 images at n = 256: P = 2, so 5
        # images take a third row), and one result per image.
        one = session.encryptor.encrypt_zero(1).byte_size()
        assert [event[:2] for event in wider] == [event[:2] for event in first]
        assert wider[0][2] - first[0][2] == self._conv_row(server, session)
        assert wider[0][3] - first[0][3] == one
        self._assert_ciphertext_only(session, returned, 4)

    def test_a_direct_request_is_one_crossing_of_public_size(
        self, server, session, models, monkeypatch
    ):
        """The direct path: one activation crossing, whose sizes do not move
        with the pixels -- all-black, all-white and real images alike -- and
        which returns only real encryptions of the logits."""
        images = models.dataset.test_images[:2]
        first, returned = self._direct(server, session, images, monkeypatch)
        assert [(kind, name) for kind, name, _, _ in first] == [
            ("ecall", "activation_pool")
        ]
        for contrary in (np.zeros_like(images), np.full_like(images, 255)):
            assert self._direct(server, session, contrary, monkeypatch)[0] == first
        # Two images: one result per image back; a third image adds one
        # conv-output row in and one result out.
        assert first[0][3] == session.encryptor.encrypt_zero(2).byte_size()
        wider, _ = self._direct(
            server, session, models.dataset.test_images[:3], monkeypatch
        )
        assert wider[0][2] - first[0][2] == self._conv_row(server, session)
        assert wider[0][3] - first[0][3] == session.encryptor.encrypt_zero(1).byte_size()
        self._assert_ciphertext_only(session, returned, 2)

    @pytest.mark.parametrize("path", ["direct", "packed"])
    def test_the_one_crossing_returns_the_reference_logits_the_client_checks(
        self, server, session, q_sigmoid, models, path
    ):
        """fc inside the crossing leaves the logits ``PlaintextPipeline``
        computes, and the client's result check is unchanged: a coefficient
        past the classes still fails it typed."""
        images = models.dataset.test_images[:3]
        if path == "direct":
            ct = session.encrypt("digits", images)
            results = [server.infer(InferenceRequest(model="digits", ciphertext=ct))]
        else:
            responses = submit_singles(server, session, images)
            server.scheduler.drain()
            results = [response.result() for response in responses]
        logits = np.concatenate([session.decrypt_logits(r) for r in results])
        assert np.array_equal(logits, PlaintextPipeline(q_sigmoid).infer(images).logits)
        result = results[-1]
        n = session.context.poly_degree
        stray = np.zeros((result.logits_ct.batch_count, n), dtype=np.int64)
        stray[-1, q_sigmoid.dense_weight.shape[1]] = 1
        tampered = Evaluator(session.context).add_plain(
            result.logits_ct, Plaintext(session.context, stray)
        )
        with pytest.raises(EncodingError, match="not lane-encoded"):
            session.decrypt_logits(dataclasses.replace(result, logits_ct=tampered))

    def test_a_result_crossing_crash_recovers_or_fails_typed(
        self, server, session, q_sigmoid, models
    ):
        """The activation crossing is the result crossing: a crash in it
        recovers with the reference logits, or exhausts typed."""
        images = models.dataset.test_images[:2]
        request = InferenceRequest(
            model="digits", ciphertext=session.encrypt("digits", images)
        )
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        crash = FaultRule(site="sgx.ecall", name="activation_pool", max_fires=2)
        plan = FaultPlan(0, rules=[crash])
        with faults.armed(plan):
            result = server.infer(request)
        assert plan.fires("sgx.ecall") == 2 and server.enclave.restarts == 2
        assert np.array_equal(session.decrypt_logits(result), expected)
        endless = dataclasses.replace(crash, max_fires=None)
        with faults.armed(FaultPlan(0, rules=[endless])):
            with pytest.raises(RecoveryExhausted, match="activation_pool"):
                server.infer(request)
