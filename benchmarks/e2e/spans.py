"""Wall-clock spans recorded from outside the program.

The traced run wraps the public callables in :data:`TARGETS` with a recorder
of (name, start, end, parent span, operation id).  Spans stay in memory; a
layer's *self* time is its spans' duration minus the part their child spans
cover, so the self times of all layers plus the unattributed rest of each
operation add up to the operation's wall time.  The wrappers exist only
inside :func:`installed`; the end-to-end runs never install them.

A span name is ``<layer>.<call>`` and the layer is the module that owns the
callable (``he.ntt.forward`` belongs to layer ``he.ntt``).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

#: (owner, attribute, span name).  ``owner`` is ``module`` or
#: ``module:Class``.  Module-level functions that other modules import by
#: name are listed once per importing module, so every call site is covered.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.client.session:AttestedClient", "establish", "client.session.establish"),
    ("repro.client.session:AttestedClient", "encrypt", "client.session.encrypt"),
    ("repro.client.session:AttestedClient", "infer", "client.session.infer"),
    ("repro.client.session:AttestedClient", "decrypt_logits", "client.session.decrypt"),
    ("repro.he.encryptor:Encryptor", "encrypt", "he.encryptor.encrypt"),
    ("repro.he.encryptor:Encryptor", "encrypt_scalar", "he.encryptor.encrypt"),
    ("repro.he.encryptor:SymmetricEncryptor", "encrypt", "he.encryptor.encrypt"),
    ("repro.he.decryptor:Decryptor", "decrypt", "he.decryptor.decrypt"),
    ("repro.he.decryptor:Decryptor", "decrypt_constants", "he.decryptor.decrypt"),
    ("repro.he.evaluator:Evaluator", "multiply_plain", "he.evaluator.multiply_plain"),
    ("repro.he.evaluator:Evaluator", "multiply", "he.evaluator.multiply"),
    ("repro.he.evaluator:Evaluator", "relinearize", "he.evaluator.relinearize"),
    ("repro.he.ntt:StackedNttPlan", "forward", "he.ntt.forward"),
    ("repro.he.ntt:StackedNttPlan", "inverse", "he.ntt.inverse"),
    ("repro.he.ntt:NttPlan", "forward", "he.ntt.forward"),
    ("repro.he.ntt:NttPlan", "inverse", "he.ntt.inverse"),
    ("repro.he.polyring:PolyContext", "pointwise_mul", "he.polyring.pointwise_mul"),
    ("repro.he.polyring:PolyContext", "pointwise_mul_sum", "he.polyring.pointwise_mul"),
    ("repro.he.batching", "pack_coefficients", "he.batching.pack_coefficients"),
    ("repro.serve.scheduler", "pack_coefficients", "he.batching.pack_coefficients"),
    ("repro.graph.executor", "pack_coefficients", "he.batching.pack_coefficients"),
    ("repro.core.heops", "he_conv2d", "core.heops.conv"),
    ("repro.core.heops", "he_dense", "core.heops.dense"),
    # The span name gains the ECALL's own name, see ``_ecall_name``.
    ("repro.faults.recovery:EnclaveSupervisor", "ecall", "sgx.ecall"),
    ("repro.core.server:EdgeServer", "infer", "core.server.infer"),
    ("repro.serve.scheduler:RequestScheduler", "submit", "serve.scheduler.submit"),
    ("repro.serve.scheduler:RequestScheduler", "drain", "serve.scheduler.drain"),
    ("repro.serve.scheduler:RequestScheduler", "run_batch", "serve.scheduler.run_batch"),
    ("repro.serve.loop:ServingLoop", "offer", "serve.loop.offer"),
    ("repro.serve.loop:ServingLoop", "run", "serve.loop.run"),
    ("repro.he.parallel:WorkerPool", "run_conv", "he.parallel.run"),
    ("repro.he.parallel:WorkerPool", "run_dense", "he.parallel.run"),
    ("repro.graph.executor", "run", "graph.executor.run"),
    ("repro.core.cryptonets:CryptonetsPipeline", "infer", "core.cryptonets.infer"),
)

#: Name of the root span the benchmark opens around each measured operation.
OPERATION = "operation"


def layer_of(name: str) -> str:
    """``he.ntt.forward`` -> ``he.ntt``; ``sgx.ecall.pack_slots`` -> ``sgx.ecall``."""
    if name.startswith("sgx.ecall"):
        return "sgx.ecall"
    return name.rpartition(".")[0]


class Recorder:
    """In-memory span store; parallel lists, one entry per span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.operations: list[int] = []
        self._stack: list[int] = []
        self._operation = -1

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.operations.append(self._operation)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, operation_id: int):
        """Root span of one measured operation; its spans share the id."""
        self._operation = operation_id
        index = self.begin(OPERATION)
        try:
            yield
        finally:
            self.end(index)
            self._operation = -1

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus what its direct children cover."""
        own = [self.duration(i) for i in range(len(self.names))]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(index)
        return own

    def totals(self, key=lambda name: name) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds, folded by ``key(name)``.

        Inclusive time leaves out a span nested inside another span of the
        same key, so a recursive or re-entrant call is not counted twice.
        """
        own = self.self_seconds()
        keys = [key(name) for name in self.names]
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for index, folded in enumerate(keys):
            row = table[folded]
            row["calls"] += 1
            row["self_s"] += own[index]
            parent = self.parents[index]
            while parent >= 0 and keys[parent] != folded:
                parent = self.parents[parent]
            if parent < 0:
                row["inclusive_s"] += self.duration(index)
        return dict(table)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """:meth:`totals` by layer: what the per-layer budget is made of."""
        return self.totals(layer_of)

    def spans(self) -> list[dict]:
        """JSON-ready span list, written out with the report."""
        return [
            {
                "name": self.names[i],
                "start_s": self.starts[i],
                "end_s": self.ends[i],
                "parent": self.parents[i],
                "operation": self.operations[i],
            }
            for i in range(len(self.names))
        ]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _ecall_name(args: tuple) -> str:
    # EnclaveSupervisor.ecall(self, name, *args): the entry point's name
    # tells the four crossings of a packed flush apart.
    return f"sgx.ecall.{args[1]}" if len(args) > 1 else "sgx.ecall"


def _wrap(recorder: Recorder, original, name: str):
    by_ecall = name == "sgx.ecall"

    @functools.wraps(original)
    def traced(*args, **kwargs):
        index = recorder.begin(_ecall_name(args) if by_ecall else name)
        try:
            return original(*args, **kwargs)
        finally:
            recorder.end(index)

    return traced


@contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the duration of the block, then restore the
    original objects (identity, not just behaviour)."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner_path, attribute, name in TARGETS:
            owner = _resolve(owner_path)
            # ``__dict__`` keeps a staticmethod/classmethod wrapper intact,
            # so restoring puts back the exact object that was there.
            original = vars(owner)[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(recorder, original, name))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def originals() -> list[tuple[str, str, object]]:
    """The objects currently bound at every target (for the restore test)."""
    return [
        (owner, attribute, vars(_resolve(owner))[attribute])
        for owner, attribute, _ in TARGETS
    ]
