"""The four benchmark workloads.

Every workload is one class with the same three-step life: the constructor
sets the deployment up (timing each set-up phase), :meth:`operation` runs
one measured operation and says how many images it attempted and how many
failed, and :meth:`close` releases what set-up started.  The workload seed
picks the images (and seeds the client-side encryption randomness, so the
program sees the same ciphertext inputs for the same seed); the program
only ever sees the generated inputs.

Why these four, and which layer each one stresses, is recorded in
``README.md`` and in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.client import AttestedClient
from repro.core import (
    EdgeServer,
    PipelineSpec,
    PlaintextPipeline,
    build_pipeline,
    train_paper_models,
)
from repro.errors import ReproError
from repro.he import parallel
from repro.serve import LoopConfig, ServingLoop, bursty_trace, poisson_trace
from repro.serve.traffic import merge
from repro.sgx import AttestationVerificationService

MODEL = "digits"
SERVER_SEED = 13
CLIENT_ENTROPY = b"\x42" * 32
HYBRID_TRAINING = dict(
    train_size=300, test_size=60, epochs=2, image_size=12, channels=2, kernel_size=3
)
#: Flush capacity of the hybrid deployments: images per full packed flush.
MAX_BATCH = 16


@dataclass
class Outcome:
    """What one operation, or a phase of them, did, in images."""

    attempted: int = 0
    failed: int = 0  # refused, shed, evicted, errored or wrong logits
    wrong: int = 0  # the subset of ``failed`` that decrypted to wrong logits

    def add(self, other: Outcome) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong

    @classmethod
    def of_one(cls, good: bool) -> Outcome:
        """One image that was served; ``good`` says its logits were right."""
        return cls(attempted=1, failed=int(not good), wrong=int(not good))

    @classmethod
    def total(cls, outcomes) -> Outcome:
        total = cls()
        for outcome in outcomes:
            total.add(outcome)
        return total

    def line(self, phase: str) -> str:
        return (
            f"{phase}: sent {self.attempted}, succeeded "
            f"{self.attempted - self.failed}, failed {self.failed} "
            f"(wrong answers {self.wrong})"
        )


class Phases:
    """Wall seconds of each named set-up phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


def warm_up(workload) -> None:
    """Run the workload's warm-up operations as the last set-up phase: the
    first calls build lazy tables and grow the heap, at 2-10x a steady call."""
    with workload.phases("warmup"):
        workload.warmup = [
            workload.operation() for _ in range(workload.warmup_operations)
        ]


class _HybridDeployment:
    """Set-up shared by the three hybrid workloads: train, build the edge
    server from a spec, provision the model, establish one attested client."""

    fleet_size = 1
    workers = 1

    def __init__(self, seed: int) -> None:
        self.phases = Phases()
        self.rng = np.random.default_rng(seed)
        with self.phases("train"):
            models = train_paper_models(**HYBRID_TRAINING)
            quantized = models.quantized_sigmoid()
        with self.phases("server_build"):
            spec = PipelineSpec(
                scheme="hybrid",
                poly_degree=1024,
                batching=True,
                max_batch=MAX_BATCH,
                fleet_size=self.fleet_size,
                workers=self.workers,
                graph_optimizer="off",
            )
            self.server = EdgeServer.from_spec(
                spec, seed=SERVER_SEED, sizing_model=quantized
            )
        with self.phases("provision"):
            self.server.provision_model(MODEL, quantized)
        with self.phases("establish"):
            verifier = AttestationVerificationService()
            verifier.register_platform(self.server.quoting)
            self.client = AttestedClient(
                self.server, verifier, CLIENT_ENTROPY
            ).establish()
        # The client encryptor draws OS entropy by default; seeding it from
        # the workload seed makes the request ciphertexts part of the seeded
        # input (and lets a test compare result bytes across two runs).
        self.client.session.encryptor.rng = np.random.default_rng(seed + 1)
        self.images = models.dataset.test_images
        self.expected = PlaintextPipeline(quantized).infer(self.images).logits
        self.clock = self.server.platform.clock
        self.last_logits: np.ndarray | None = None
        self.last_result = None
        #: Span trees the program attached to checked results, by identity
        #: (the requests of one flush share theirs); the traced run reads
        #: the ECALL counts of an operation from here.
        self.traces: dict[int, object] = {}

    def encrypt_pool(self, size: int) -> None:
        """Encrypt ``size`` seed-chosen test images ahead of the clock."""
        with self.phases("pool_encrypt"):
            self.pool_index = self.rng.choice(len(self.images), size, replace=False)
            self.pool = [
                self.client.encrypt(MODEL, self.images[i : i + 1])
                for i in self.pool_index
            ]

    def check(self, result, image_index: int) -> bool:
        """Decrypt one served result and compare it with the plaintext
        integer reference for its image."""
        self.last_result = result
        self.traces[id(result.timing.trace)] = result.timing.trace
        self.last_logits = self.client.decrypt_logits(result)
        return np.array_equal(
            self.last_logits, self.expected[image_index : image_index + 1]
        )

    def sim_seconds(self) -> float:
        return self.clock.now_s

    def close(self) -> None:
        parallel.shutdown()


class DirectClosed(_HybridDeployment):
    """One vehicle, one frame: encrypt -> EdgeServer.infer -> decrypt."""

    name = "direct_closed"
    warmup_operations = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = self.rng.permutation(len(self.images))
        self._next = 0
        warm_up(self)

    def operation(self) -> Outcome:
        index = int(self.order[self._next % len(self.order)])
        self._next += 1
        try:
            result = self.client.infer(MODEL, self.images[index : index + 1], pack=False)
            good = self.check(result, index)
        except ReproError:
            return Outcome(attempted=1, failed=1)
        return Outcome.of_one(good)


class PackedWaves(_HybridDeployment):
    """Full packed flushes: 16 pre-encrypted requests per wave."""

    name = "packed_waves"
    warmup_operations = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.encrypt_pool(MAX_BATCH)
        warm_up(self)

    def operation(self) -> Outcome:
        outcome = Outcome()
        submitted = []
        for ct, index in zip(self.pool, self.pool_index):
            try:
                submitted.append((self.server.scheduler.submit(MODEL, ct), int(index)))
            except ReproError:
                outcome.add(Outcome(attempted=1, failed=1))  # refused
        self.server.scheduler.drain()
        for response, index in submitted:
            try:
                outcome.add(Outcome.of_one(self.check(response.result(), index)))
            except ReproError:
                outcome.add(Outcome(attempted=1, failed=1))
        return outcome


class LoopTrace(_HybridDeployment):
    """The stack as deployed: open-loop arrivals on the serving loop's
    virtual timeline, two enclave replicas, two flush workers.

    One operation replays one fixed block of arrivals through a fresh
    ``ServingLoop`` and decrypts every served ticket.  The arrival *times*
    come from :data:`TRACE_SEED`, not from the workload seed: a block is
    only six flushes, and across seeds the Poisson spread of images per
    flush (inter-quartile ~10 % of the median) would drown the wall-clock
    signal.  The workload seed picks the image pool and the image of every
    arrival.
    """

    name = "loop_trace"
    fleet_size = 2
    workers = 2
    pool_size = 8
    # A whole block: its largest flush is what grows the heap and the flush
    # arena, and a shorter warm-up leaves the first measured replay 15-50 %
    # slower than the rest.
    warmup_operations = 1

    TRACE_SEED = 42
    RATE_RPS = 350.0
    STEADY_S = 0.06
    BURST_S = 0.02

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.encrypt_pool(self.pool_size)
        self.config = LoopConfig(
            window_s=0.010, max_queue_depth=64, admit_wait_slo_s=0.030
        )
        steady = poisson_trace(
            self.TRACE_SEED,
            rate_rps=self.RATE_RPS,
            duration_s=self.STEADY_S,
            users=1000,
            image_pool=self.pool_size,
        )
        burst = bursty_trace(
            self.TRACE_SEED + 1,
            base_rate_rps=self.RATE_RPS,
            burst_factor=4.0,
            period_s=self.BURST_S,
            duration_s=self.BURST_S,
            users=1000,
            image_pool=self.pool_size,
        ).shifted(self.STEADY_S)
        self.arrivals = [
            replace(a, image_index=int(self.rng.integers(self.pool_size)))
            for a in merge(steady, burst)
        ]
        self.last_loop: ServingLoop | None = None
        warm_up(self)

    def operation(self) -> Outcome:
        loop = ServingLoop(self.server, self.config)
        for arrival in self.arrivals:
            loop.offer(arrival, self.pool[arrival.image_index])
        loop.run()
        self.last_loop = loop
        outcome = Outcome(attempted=len(loop.tickets))
        for ticket in loop.tickets:
            if not ticket.served:
                outcome.failed += 1  # shed, evicted, rejected or failed flush
            elif not self.check(
                ticket.result(), int(self.pool_index[ticket.image_index])
            ):
                outcome.failed += 1
                outcome.wrong += 1
        return outcome


class CryptonetsDirect:
    """The paper's pure-HE ``Encrypted`` baseline: ct x ct multiply,
    relinearise, scaled mean-pool, no enclave crossing.

    n = 256 and 10 x 10 images because the exact big-integer tensor product
    costs seconds per image at n = 1024 and would leave too few samples.
    """

    name = "cryptonets_direct"
    warmup_operations = 1

    def __init__(self, seed: int) -> None:
        self.phases = Phases()
        rng = np.random.default_rng(seed)
        with self.phases("train"):
            models = train_paper_models(**{**HYBRID_TRAINING, "image_size": 10})
            quantized = models.quantized_square()
        with self.phases("server_build"):
            self.pipeline = build_pipeline(
                "cryptonets", quantized, poly_degree=256, seed=7, graph_optimizer="off"
            )
        self.images = models.dataset.test_images
        self.expected = PlaintextPipeline(quantized).infer(self.images).logits
        self.order = rng.permutation(len(self.images))
        self._next = 0
        self.last_logits: np.ndarray | None = None
        self.last_result = None
        self.traces: dict[int, object] = {}
        warm_up(self)

    def operation(self) -> Outcome:
        index = int(self.order[self._next % len(self.order)])
        self._next += 1
        try:
            self.last_result = self.pipeline.infer(self.images[index : index + 1])
        except ReproError:
            return Outcome(attempted=1, failed=1)
        self.traces[id(self.last_result.trace)] = self.last_result.trace
        self.last_logits = self.last_result.logits
        good = np.array_equal(self.last_logits, self.expected[index : index + 1])
        return Outcome.of_one(good)

    def sim_seconds(self) -> float:
        return self.pipeline.clock.now_s

    def close(self) -> None:
        parallel.shutdown()


WORKLOADS = {
    cls.name: cls for cls in (DirectClosed, PackedWaves, LoopTrace, CryptonetsDirect)
}
