"""Chaos against the worker pool: a SIGKILLed pool worker must never
change a single output byte.

The ``parallel.worker`` site (DESIGN.md §15) kills one worker process at
unit dispatch.  No serving flush reaches the pool (its conv and fc are
plaintext-polynomial products), so the chaos drives the walk that still
dispatches: the in-process hybrid pipeline's scalar conv and fc
contractions.  The pool's recovery contract: the whole generation is
retired (a killed worker can die holding a queue lock), every
unacknowledged unit replays in-process through the identical unit
executor, and fresh workers respawn for the next contraction -- so the
logits stay bit-identical to the plaintext reference and the result bytes
to a fault-free single-process run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.core import PlaintextPipeline
from repro.faults import FaultPlan, FaultRule
from repro.he import parallel
from repro.he.serialize import serialize_ciphertext
from repro.obs.metrics import use_registry

from .conftest import chaos_seeds


@pytest.fixture(autouse=True)
def pristine_pool_state():
    """Chaos must not leak a worker configuration (or a dead pool) out."""
    parallel.configure(None)
    parallel.shutdown()
    yield
    parallel.configure(None)
    parallel.shutdown()


class TestWorkerKilledMidFlush:
    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_kill_replays_bit_identically(self, make_pipeline, q_sigmoid, models, seed):
        """Kill worker 1 during the hybrid pipeline's contractions: every
        unit replays in-process and the logits match plaintext bit-for-bit."""
        images = models.dataset.test_images[:3]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        pipeline = make_pipeline("batched")
        with use_registry() as reg:
            with parallel.use(3):
                plan = FaultPlan(
                    seed,
                    rules=[FaultRule(site="parallel.worker", name="1", max_fires=1)],
                )
                with faults.armed(plan):
                    result = pipeline.infer(images)
                pool = parallel.active_pool()
                assert plan.fires("parallel.worker") == 1
                assert pool.deaths == 1
                assert pool.replayed_units >= 1
                # The respawned generation is alive and serving.
                assert all(proc.is_alive() for proc in pool._procs.values())
            flat = reg.collect().flat()
            assert flat["repro_parallel_worker_deaths_total"] == 1.0
            assert flat["repro_parallel_replayed_units_total"] >= 1.0
        assert np.array_equal(result.logits, expected)

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_kill_matches_single_process_run(self, make_pipeline, models, seed):
        """The fault-free workers=1 run and the killed workers=2 run of two
        same-seed pipelines produce identical logits and result bytes."""
        images = models.dataset.test_images[:2]
        reference = make_pipeline("batched").infer(images)  # workers=1, disarmed
        pipeline = make_pipeline("batched")
        with parallel.use(2):
            plan = FaultPlan(
                seed,
                rules=[FaultRule(site="parallel.worker", name="0", max_fires=1)],
            )
            with faults.armed(plan):
                result = pipeline.infer(images)
            assert plan.fires("parallel.worker") == 1
            assert parallel.active_pool().deaths == 1
        assert np.array_equal(result.logits, reference.logits)
        assert serialize_ciphertext(result.logits_ct) == serialize_ciphertext(
            reference.logits_ct
        )

    @pytest.mark.parametrize("seed", chaos_seeds())
    def test_pool_survives_repeated_kills(self, make_pipeline, q_sigmoid, models, seed):
        """Three kills across successive inferences: each retires a
        generation, each respawn serves the next one, results stay exact."""
        images = models.dataset.test_images[:2]
        expected = PlaintextPipeline(q_sigmoid).infer(images).logits
        pipeline = make_pipeline("batched")
        with parallel.use(2):
            plan = FaultPlan(
                seed,
                rules=[FaultRule(site="parallel.worker", probability=0.5, max_fires=3)],
            )
            with faults.armed(plan):
                for _ in range(3):
                    assert np.array_equal(pipeline.infer(images).logits, expected)
            pool = parallel.active_pool()
            assert pool.deaths == plan.fires("parallel.worker")
