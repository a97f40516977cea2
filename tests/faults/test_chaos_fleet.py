"""Chaos against the fleet: replica loss at dispatch and in-flight retry
exhaustion must fail whole batches over to a survivor -- every ticket
resolves and every logit stays bit-identical to the plaintext reference.

The fleet's failover contract (DESIGN.md §14): when a replica dies,
:meth:`FleetScheduler.run_batch` retires it and re-dispatches the batch to
a surviving replica.  Because every replica restored the authority's sealed
key pair, the survivor's results are bit-for-bit what the dead replica
would have produced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.client import AttestedClient
from repro import faults
from repro.core import EdgeServer, PlaintextPipeline
from repro.faults import FaultPlan, FaultRule
from repro.obs.metrics import use_registry
from repro.serve import LoopConfig, ServeConfig, ServingLoop
from repro.sgx import AttestationVerificationService

from .conftest import chaos_seeds


def make_fleet_loop(batching_params, q_sigmoid, *, fleet_size=2, max_batch=4, **cfg):
    srv = EdgeServer(
        batching_params,
        seed=13,
        serve_config=ServeConfig(max_batch=max_batch),
        fleet_size=fleet_size,
    )
    srv.provision_model("digits", q_sigmoid)
    verifier = AttestationVerificationService()
    verifier.register_platform(srv.quoting)
    session = AttestedClient(srv, verifier, b"\x42" * 32).establish().session
    cfg.setdefault("window_s", 0.005)
    return ServingLoop(srv, LoopConfig(**cfg)), session


class TestReplicaKilledAtDispatch:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_failover_resolves_every_ticket_bit_identically(
        self, batching_params, q_sigmoid, models, seed
    ):
        """``serve.fleet.replica`` destroys replica 0's handle the moment a
        flush is dispatched to it: the batch fails over to replica 1, every
        ticket is served (not isolated, not failed), the dead replica is
        retired, and the logits match plaintext bit-for-bit."""
        with use_registry() as reg:
            loop, session = make_fleet_loop(batching_params, q_sigmoid)
            images = models.dataset.test_images[:3]
            expected = PlaintextPipeline(q_sigmoid).infer(images).logits
            tickets = [
                loop.submit(
                    "digits",
                    session.encrypt("digits", images[i : i + 1]),
                    at_s=0.001 * i,
                )
                for i in range(3)
            ]
            plan = FaultPlan(
                seed,
                rules=[FaultRule(site="serve.fleet.replica", name="0", max_fires=1)],
            )
            with faults.armed(plan):
                loop.run()
            assert plan.fires("serve.fleet.replica") == 1
            assert all(t.served for t in tickets)
            assert loop.queue_depth == 0 and not loop._inflight
            for i, ticket in enumerate(tickets):
                logits = session.decrypt_logits(ticket.result())
                assert np.array_equal(logits, expected[i : i + 1])
            fleet = loop.server.fleet
            assert fleet.live_replicas() == [1]
            assert 0 in fleet.retired_replicas()
            assert fleet.authority_id == 1
            flat = reg.collect().flat()
            assert flat['repro_fleet_failovers_total{model="digits"}'] == 1.0
            assert flat['repro_fleet_retirements_total{replica="0"}'] == 1.0

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_fleet_survives_losing_all_but_one(
        self, batching_params, q_sigmoid, models, seed
    ):
        """Kill three of four replicas across successive flushes: each loss
        fails over, the last replica serves everything, and the decrypted
        stream equals the plaintext reference throughout."""
        loop, session = make_fleet_loop(
            batching_params, q_sigmoid, fleet_size=4, max_batch=2
        )
        images = models.dataset.test_images[:4]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        tickets = [
            loop.submit(
                "digits", session.encrypt("digits", images[i : i + 1]), at_s=0.002 * i
            )
            for i in range(4)
        ]
        plan = FaultPlan(
            seed,
            rules=[
                FaultRule(site="serve.fleet.replica", name=str(rid), max_fires=1)
                for rid in (0, 1, 2)
            ],
        )
        with faults.armed(plan):
            loop.run()
        assert all(t.served for t in tickets)
        fleet = loop.server.fleet
        assert fleet.live_replicas() == [3]
        for i, ticket in enumerate(tickets):
            assert np.array_equal(
                session.decrypt_logits(ticket.result()), expected[i : i + 1]
            )


class TestRetryExhaustionFailsOver:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_exhausted_replica_retires_and_survivor_serves(
        self, batching_params, q_sigmoid, models, seed
    ):
        """An ECALL fault that outlasts the supervisor's retry budget
        (``RecoveryExhausted``) is replica *loss*, not request poison: the
        batch fails over whole and still decrypts bit-identically.  The
        fault rule is spent by the first replica's retries, so the survivor
        runs clean."""
        srv = EdgeServer(
            batching_params,
            seed=13,
            serve_config=ServeConfig(max_batch=4),
            fleet_size=2,
        )
        srv.provision_model("digits", q_sigmoid)
        verifier = AttestationVerificationService()
        verifier.register_platform(srv.quoting)
        session = AttestedClient(srv, verifier, b"\x42" * 32).establish().session
        loop = ServingLoop(srv, LoopConfig(window_s=0.005))
        images = models.dataset.test_images[:2]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        tickets = [
            loop.submit(
                "digits", session.encrypt("digits", images[i : i + 1]), at_s=0.0
            )
            for i in range(2)
        ]
        # RetryPolicy default allows 3 attempts; 3 fires exhaust exactly one
        # replica's supervisor.  The restart path's restore_keys ECALLs do
        # not match the name filter, so recovery itself is not poisoned.
        plan = FaultPlan(
            seed,
            rules=[
                FaultRule(site="sgx.ecall", name="activation_pool", max_fires=3)
            ],
        )
        with faults.armed(plan):
            loop.run()
        assert all(t.served for t in tickets)
        fleet = srv.fleet
        assert fleet.live_replicas() == [1]
        assert 0 in fleet.retired_replicas()
        for i, ticket in enumerate(tickets):
            assert np.array_equal(
                session.decrypt_logits(ticket.result()), expected[i : i + 1]
            )

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_single_replica_fleet_falls_back_to_isolation(
        self, batching_params, q_sigmoid, models, seed
    ):
        """With no survivor to fail over to, replica loss degrades to the
        legacy per-request isolation path: tickets resolve with typed
        errors instead of hanging."""
        from repro.errors import RequestFailedError

        loop, session = make_fleet_loop(
            batching_params, q_sigmoid, fleet_size=1, max_batch=2
        )
        ct = session.encrypt("digits", models.dataset.test_images[:1])
        tickets = [loop.submit("digits", ct, at_s=0.0) for _ in range(2)]
        plan = FaultPlan(
            seed,
            rules=[FaultRule(site="serve.fleet.replica", name="0", max_fires=1)],
        )
        with faults.armed(plan):
            loop.run()
        assert all(t.done() for t in tickets)
        assert all(isinstance(t.error, RequestFailedError) for t in tickets)
        assert not loop._inflight
