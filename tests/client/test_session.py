"""The attested-connection state machine: transitions, typed failures,
pinning, and crash-recovery semantics of :class:`repro.client.AttestedClient`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient, SessionState, key_fingerprint
from repro.core import PlaintextPipeline
from repro.errors import (
    ClientConnectError,
    ClientError,
    ClientStateError,
    QuoteVerificationError,
    ReproError,
    SessionPinError,
)
from repro.sgx import AttestationVerificationService


def make_client(server, verifier_for, entropy=b"\x42" * 32, **kwargs):
    return AttestedClient(server, verifier_for(server), entropy, **kwargs)


class TestStateMachine:
    def test_establish_walks_all_states(self, make_server, verifier_for):
        server = make_server(fleet_size=2)
        client = make_client(server, verifier_for)
        assert client.state is SessionState.CREATED
        descriptor = client.connect()
        assert client.state is SessionState.CONNECTED
        assert descriptor["models"] == ["digits"]
        assert descriptor["replicas"] == [0, 1]
        client.verify_quote()
        assert client.state is SessionState.QUOTE_VERIFIED
        fingerprint = client.pin_session()
        assert client.state is SessionState.SESSION_PINNED
        assert fingerprint == client.pinned_fingerprint
        client.activate()
        assert client.state is SessionState.READY
        assert client.connects == 1

    def test_out_of_order_transitions_are_typed(self, make_server, verifier_for):
        client = make_client(make_server(), verifier_for)
        with pytest.raises(ClientStateError):
            client.verify_quote()
        with pytest.raises(ClientStateError):
            client.pin_session()
        with pytest.raises(ClientStateError):
            client.activate()
        with pytest.raises(ClientStateError):
            client.encrypt("digits", np.zeros((1, 10, 10)))
        client.connect()
        with pytest.raises(ClientStateError):
            client.connect()  # already connected

    def test_client_errors_are_repro_errors(self):
        for err in (
            ClientError,
            ClientStateError,
            ClientConnectError,
            QuoteVerificationError,
            SessionPinError,
        ):
            assert issubclass(err, ReproError)

    def test_connect_failure_is_retryable(self, batching_params, verifier_for, q_sigmoid):
        from repro.core import EdgeServer

        server = EdgeServer(batching_params, seed=13)  # no models yet
        client = make_client(server, verifier_for)
        with pytest.raises(ClientConnectError):
            client.connect()
        assert client.state is SessionState.CREATED  # not terminal
        server.provision_model("digits", q_sigmoid)
        client.connect()
        assert client.state is SessionState.CONNECTED


class TestQuoteVerification:
    def test_wrong_mrenclave_is_terminal(self, make_server, verifier_for):
        server = make_server()
        client = make_client(
            server, verifier_for, expected_mrenclave="0" * 64
        )
        client.connect()
        with pytest.raises(QuoteVerificationError):
            client.verify_quote()
        assert client.state is SessionState.FAILED
        # Terminal: every further use is refused, including reconnect.
        with pytest.raises(ClientStateError):
            client.connect()
        with pytest.raises(ClientStateError):
            client.reconnect()
        with pytest.raises(ClientStateError):
            client.infer("digits", np.zeros((1, 10, 10)))

    def test_unregistered_platform_is_terminal(self, make_server):
        server = make_server()
        stranger = AttestationVerificationService()  # never saw this platform
        client = AttestedClient(server, stranger, b"\x42" * 32)
        client.connect()
        with pytest.raises(QuoteVerificationError):
            client.verify_quote()
        assert client.state is SessionState.FAILED


class TestSessionPinning:
    def test_pin_rejects_key_rotated_fleet(self, make_server, verifier_for):
        server = make_server(fleet_size=2)
        client = make_client(server, verifier_for).establish()
        before = client.pinned_fingerprint
        server.fleet.rotate_keys()
        with pytest.raises(SessionPinError):
            client.reconnect()
        assert client.state is SessionState.FAILED
        assert client.pinned_fingerprint == before  # the pin never moves
        with pytest.raises(ClientStateError):
            client.infer("digits", np.zeros((1, 10, 10)))

    def test_fingerprint_matches_delivered_public_key(
        self, make_server, verifier_for
    ):
        server = make_server()
        client = make_client(server, verifier_for).establish()
        assert client.pinned_fingerprint == key_fingerprint(
            client.session.encryptor.public_key
        )

    def test_reconnect_requires_prior_pin(self, make_server, verifier_for):
        client = make_client(make_server(), verifier_for)
        with pytest.raises(ClientStateError):
            client.reconnect()


class TestCrashRecovery:
    def test_reconnect_after_replica_crash_is_bit_identical(
        self, make_server, verifier_for, models
    ):
        server = make_server(fleet_size=2)
        client = make_client(server, verifier_for).establish()
        images = models.dataset.test_images[:2]
        before = client.decrypt_logits(client.infer("digits", images))

        # Host-level loss of the authority replica.
        authority = server.fleet.authority_id
        server.fleet.kill_replica(authority)
        server.fleet.retire(authority, "host crash")

        client.reconnect()
        assert client.state is SessionState.READY
        assert client.reconnects == 1
        after = client.decrypt_logits(client.infer("digits", images))
        assert np.array_equal(before, after)

    def test_predictions_match_plaintext_reference(
        self, make_server, verifier_for, models, q_sigmoid
    ):
        server = make_server(fleet_size=2)
        client = make_client(server, verifier_for).establish()
        images = models.dataset.test_images[:3]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        assert np.array_equal(
            client.decrypt_logits(client.infer("digits", images)), expected
        )
        assert np.array_equal(
            client.predict("digits", images), expected.argmax(axis=1)
        )
