"""Multicore scalar contractions: a worker pool over the shared ciphertext
arena (the in-process pipelines'; no serving flush reaches it).

This module owns *distribution* and no arithmetic: it carves a fused conv
or dense layer's scalar contraction (:mod:`repro.he.contraction`) into work
units, runs them on a pool of forked worker processes over a shared-memory
:class:`~repro.he.arena.Arena`, and replays them when a worker dies.

**Determinism contract.**  Work units are contiguous index ranges over one
axis of the output (batch rows when the batch is stacked, conv output rows
or FC classes for a one-image ``(1, ...)`` batch).  Every unit runs the one
row-range kernel of its layer kind (``KERNELS``) -- the same function the
in-process run calls once over the whole range -- and integer adds are
associative with every partial bounds-checked against int64 by the caller,
so the assembled output is byte-identical regardless of worker count,
scheduling, or completion order.  Workers write results straight into
disjoint slices of the shared output block; assembly is positional, never
order-of-arrival.

**Worker death.**  The ``parallel.worker`` fault site (``name`` = worker
id) SIGKILLs a worker at dispatch.  Recovery retires the *whole* pool --
a killed worker can die holding a queue lock, and a surviving writer from
a torn-down generation must never touch a reused arena -- then replays
every unacknowledged unit in the parent through the same kernel
(bit-identical by the contract above) and respawns fresh workers for the
next dispatch.

**Configuration.**  ``configure(workers)`` / ``use(workers)`` set a
process-wide width; ``REPRO_WORKERS`` is the environment default and
``PipelineSpec(workers=...)`` / ``build_pipeline(...)`` route here.  With
``workers <= 1`` (or a layer with nothing to split) no pool is involved and
:func:`dispatch_conv` / :func:`dispatch_dense` run one whole-range unit in
the calling process.
"""

from __future__ import annotations

import atexit
import math
import os
import signal
import time
from contextlib import contextmanager

import numpy as np

from repro import faults
from repro.errors import ParallelError
from repro.he import contraction
from repro.he.arena import Arena
from repro.obs import context as obs_context
from repro.obs import metrics, recorder
from repro.obs.tracer import Span, active_tracer

#: Fault site consulted once per dispatched unit (``name`` = preferred
#: worker id); a fire SIGKILLs that worker mid-flush.
FAULT_SITE = "parallel.worker"

#: Contiguous units carved per worker per flush (2 gives the shared queue
#: room to balance without shrinking units into IPC noise).
UNITS_PER_WORKER = 2

#: Hard ceiling on one flush's collection phase in real seconds.
RUN_TIMEOUT_S = 120.0

_ENV_WORKERS = "REPRO_WORKERS"


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
_configured: int | None = None
_pool: "WorkerPool | None" = None


def default_workers() -> int:
    """The ``REPRO_WORKERS`` environment default (1 when unset or empty).

    Raises:
        ParallelError: the variable holds anything but an integer >= 1 -- a
            mistyped CI switch must not silently test the default width.
    """
    raw = os.environ.get(_ENV_WORKERS, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParallelError(f"{_ENV_WORKERS} must be an integer >= 1, got {raw!r}")
    return workers


def active_workers() -> int:
    """The effective worker count (configured, else the env default)."""
    return _configured if _configured is not None else default_workers()


def configure(workers: int | None) -> int | None:
    """Install a process-wide worker count; returns the previous setting.

    ``None`` reverts to the ``REPRO_WORKERS`` environment default.  A
    change tears down any live pool so the next dispatch builds one at the
    new width.
    """
    global _configured
    if workers is not None and workers < 1:
        raise ParallelError(f"workers must be >= 1, got {workers}")
    previous = _configured
    before = active_workers()
    _configured = workers
    if active_workers() != before:
        shutdown()
    metrics.family("repro_parallel_workers").set(active_workers())
    return previous


@contextmanager
def use(workers: int | None):
    """Scoped :func:`configure`; restores the previous setting on exit."""
    previous = configure(workers)
    try:
        yield
    finally:
        configure(previous)


def shutdown() -> None:
    """Tear down the live pool (tests, config changes, interpreter exit)."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.close()


atexit.register(shutdown)


def active_pool() -> "WorkerPool | None":
    """The lazily-built pool for the active worker count (None when <= 1:
    every contraction is one in-process whole-range unit)."""
    global _pool
    workers = active_workers()
    if workers <= 1:
        return None
    if _pool is None or _pool.workers != workers:
        shutdown()
        _pool = WorkerPool(workers)
    return _pool


# ----------------------------------------------------------------------
# work units (the same kernels in workers, in replay and in-process)
# ----------------------------------------------------------------------
#: The row-range kernel of each layer kind -- the only arithmetic a unit runs.
KERNELS = {"conv": contraction.conv_rows, "dense": contraction.dense_rows}

#: Task keys that describe the unit to the pool, not to its kernel.
_POOL_KEYS = ("unit", "trace", "shm")


def _execute_unit(task: dict, buf: np.ndarray) -> None:
    """Run one work unit over the arena buffer ``buf``: re-derive its
    ``(offset, shape)`` views and hand every other task key to the kernel."""
    args = {key: value for key, value in task.items() if key not in _POOL_KEYS}

    def view(name: str) -> np.ndarray:
        off, shape = args.pop(f"{name}_off"), args.pop(f"{name}_shape")
        return buf[off : off + math.prod(shape)].reshape(shape)

    kernel = KERNELS[args.pop("kind")]
    bias = view("bias") if "bias_off" in args else None
    kernel(view("in"), view("w"), view("out"), bias=bias, **args)


def _layout(
    kind: str, data: np.ndarray, weights: np.ndarray, args: dict
) -> tuple[tuple[int, ...], str, int]:
    """Output shape, split axis and axis length of one contraction: batch
    rows when the batch is stacked, else conv output rows / FC classes."""
    b, f = data.shape[0], weights.shape[0]
    if kind == "conv":
        shape = (b, f, args["oh"], args["ow"], *data.shape[-3:])
        inner = ("rows", args["oh"])
    else:
        shape, inner = (b, f, *data.shape[2:]), ("classes", f)
    return (shape, "batch", b) if b > 1 else (shape, *inner)


def _run_whole(
    kind: str, data: np.ndarray, weights: np.ndarray, args: dict
) -> np.ndarray:
    """The in-process run: one unit spanning the whole split axis."""
    out_shape, axis, length = _layout(kind, data, weights, args)
    out = np.empty(out_shape, dtype=np.int64)
    KERNELS[kind](data, weights, out, axis=axis, rows=(0, length), **args)
    return out


def _worker_main(worker_id: int, tasks, results) -> None:  # pragma: no cover
    """Worker loop: attach the named segment lazily, execute, ack.

    Runs in forked children; covered by the integration suite, not by
    in-process coverage.  Generation teardown SIGTERMs workers; exiting via
    ``os._exit`` skips interpreter shutdown so the attached segments (whose
    lifetime the parent owns) never trip ``SharedMemory.__del__``.
    """
    signal.signal(signal.SIGTERM, lambda signum, frame: os._exit(0))
    attached: dict[str, tuple] = {}
    while True:
        task = tasks.get()
        if task is None:
            break
        started = time.perf_counter()
        _execute_unit(task, _attach_buffer(task["shm"], attached))
        results.put((worker_id, task["unit"], time.perf_counter() - started))
    _detach_all(attached)
    os._exit(0)


def _attach_buffer(name: str, cache: dict) -> np.ndarray:
    """The int64 view of segment ``name``, mapping it on first use.

    ``cache`` holds the one segment the current task names: when the
    parent's arena grew (new segment, old one unlinked) the replaced
    mapping is closed here rather than kept until the worker exits.
    """
    if name not in cache:
        from multiprocessing import shared_memory

        _detach_all(cache)
        # The parent owns the segment's lifetime (its unlink clears the
        # resource tracker entry); the child only maps it.
        shm = shared_memory.SharedMemory(name=name)
        cache[name] = (shm, np.frombuffer(shm.buf, dtype=np.int64))
    return cache[name][1]


def _detach_all(cache: dict) -> None:
    while cache:
        shm, arr = cache.popitem()[1]
        del arr  # drop the frombuffer export before closing the mapping
        try:
            shm.close()
        except BufferError:  # pragma: no cover - caller-held view
            pass


def _unit_ranges(length: int, units: int) -> list[tuple[int, int]]:
    """Deterministic contiguous split of ``range(length)`` into ``units``."""
    units = max(1, min(length, units))
    bounds = np.linspace(0, length, units + 1, dtype=np.int64)
    return [(int(a), int(b)) for a, b in zip(bounds, bounds[1:]) if b > a]


class WorkerPool:
    """Forked process pool executing kernel units over a shared arena."""

    def __init__(self, workers: int, *, capacity_words: int = 1 << 18) -> None:
        if workers < 2:
            raise ParallelError("WorkerPool needs >= 2 workers; use the "
                                "in-process fallback below that")
        import multiprocessing as mp

        self.workers = workers
        self._mp = mp.get_context("fork")
        self.arena = Arena(capacity_words, shared=True, auto_grow=True)
        self._procs: dict[int, object] = {}
        self._tasks = None
        self._results = None
        self._unit_seq = 0
        self.deaths = 0
        self.replayed_units = 0
        self.dispatched_units = 0
        self.stolen_units = 0
        self._spawn_all()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn_all(self) -> None:
        self._tasks = self._mp.SimpleQueue()
        self._results = self._mp.SimpleQueue()
        self._procs = {}
        for wid in range(self.workers):
            proc = self._mp.Process(
                target=_worker_main,
                args=(wid, self._tasks, self._results),
                daemon=True,
                name=f"repro-parallel-{wid}",
            )
            proc.start()
            self._procs[wid] = proc

    def _teardown_procs(self) -> None:
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck terminate
                proc.kill()
                proc.join(timeout=2.0)
        self._procs = {}
        for queue in (self._tasks, self._results):
            if queue is not None:
                queue.close()
        self._tasks = self._results = None

    def close(self) -> None:
        if self._tasks is not None:
            try:
                for _ in self._procs:
                    self._tasks.put(None)
            except Exception:  # pragma: no cover - broken pipe after a kill
                pass
        self._teardown_procs()
        self.arena.close()

    # ------------------------------------------------------------------
    # kernel entry points
    # ------------------------------------------------------------------
    def run_conv(
        self,
        data: np.ndarray,
        wtaps: np.ndarray,
        *,
        k: int,
        s: int,
        oh: int,
        ow: int,
        primes: list[int],
        chunk: int,
        keep: tuple[int, ...] | None = None,
        bias: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Fused scalar conv over the pool; returns ``(B, F, OH, OW, *tail)``
        or None when there is nothing to split (single row on both axes)."""
        args = dict(k=k, s=s, oh=oh, ow=ow, chunk=chunk, primes=primes, keep=keep)
        return self._run_kernel("conv", data, wtaps, bias, args)

    def run_dense(
        self,
        fd: np.ndarray,
        wmat: np.ndarray,
        *,
        primes: list[int],
        keep: tuple[int, ...] | None = None,
        bias: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Fused scalar dense over the pool; returns ``(B, O, *tail)`` or
        None when there is nothing to split."""
        return self._run_kernel("dense", fd, wmat, bias, dict(primes=primes, keep=keep))

    def _run_kernel(
        self,
        kind: str,
        data: np.ndarray,
        weights: np.ndarray,
        bias: np.ndarray | None,
        args: dict,
    ) -> np.ndarray | None:
        out_shape, axis, length = _layout(kind, data, weights, args)
        if length < 2:
            return None
        self.arena.reset()
        views = {"in": self.arena.place(data), "w": self.arena.place(weights)}
        if bias is not None:
            views["bias"] = self.arena.place(bias)
        views["out"] = self.arena.alloc(out_shape)
        common = {
            **args,
            "trace": obs_context.wire_current(),
            "kind": kind,
            "shm": self.arena.name,
            "axis": axis,
        }
        for name, view in views.items():
            common[f"{name}_off"], common[f"{name}_shape"] = view.offset, view.shape
        tasks = []
        for rows in _unit_ranges(length, self.workers * UNITS_PER_WORKER):
            tasks.append({**common, "unit": self._unit_seq, "rows": rows})
            self._unit_seq += 1
        self._run_units(tasks)
        return views["out"].array.copy()

    # ------------------------------------------------------------------
    # dispatch / collection
    # ------------------------------------------------------------------
    def _run_units(self, tasks: list[dict]) -> None:
        units = metrics.family("repro_parallel_units_total")
        preferred: dict[int, int] = {}
        armed = faults.is_armed()
        killed: list[int] = []
        for index, task in enumerate(tasks):
            wid = index % self.workers
            preferred[task["unit"]] = wid
            if armed and not killed:
                event = faults.poll(FAULT_SITE, name=str(wid), units=len(tasks))
                if event is not None:
                    self._kill_worker(wid)
                    killed.append(wid)
            if killed:
                # A known-dead worker may hold a queue lock, and survivors
                # could drain its units and mask the loss; stop dispatching
                # and recover the whole generation deterministically.
                continue
            self._tasks.put(task)
            self.dispatched_units += 1
            units.labels(kind=task["kind"]).inc()
        pending = {task["unit"]: task for task in tasks}
        if killed:
            self._recover(killed, pending)
            return
        latency = metrics.family("repro_parallel_unit_seconds")
        deadline = time.monotonic() + RUN_TIMEOUT_S
        while pending:
            if self._poll_results(0.05):
                wid, unit, elapsed = self._results.get()
                task = pending.pop(unit, None)
                if task is None:
                    continue  # stale ack from a superseded generation
                latency.labels(kind=task["kind"]).observe(elapsed)
                metrics.family("repro_parallel_worker_busy_seconds_total").labels(
                    worker=str(wid)
                ).inc(elapsed)
                if wid != preferred[unit]:
                    self.stolen_units += 1
                    metrics.family("repro_parallel_steals_total").inc()
                self._annotate_unit(task, wid, elapsed)
                continue
            dead = [w for w, proc in self._procs.items() if not proc.is_alive()]
            if dead:
                self._recover(dead, pending)
                pending = {}
            elif time.monotonic() > deadline:
                raise ParallelError(
                    f"worker pool stalled: {len(pending)} unit(s) pending "
                    f"past {RUN_TIMEOUT_S:.0f}s with all workers alive"
                )

    def _annotate_unit(self, task: dict, wid: int, elapsed: float) -> None:
        """Re-attach a completed work unit to the open trace, if any.

        The unit ran out-of-process where no tracer exists, so its ack
        becomes a zero-cost annotation span under whatever span is open
        (the kernel's stage): simulated time is untouched -- the host-side
        seconds ride along as an attr -- and the request contexts from the
        work-unit header re-stamp so fan-out stays attributable per user.
        """
        tracer = active_tracer()
        parent = tracer.current if tracer is not None else None
        if parent is None:
            return
        span = Span(
            name=f"parallel/{task['kind']}_unit",
            kind="span",
            attrs={
                "unit": task["unit"],
                "worker": wid,
                "rows": list(task["rows"]),
                "host_elapsed_s": elapsed,
            },
        )
        header = [obs_context.TraceContext.from_wire(h) for h in task["trace"]]
        with obs_context.activate(*header):
            obs_context.stamp(span.attrs)
        parent.children.append(span)

    def _poll_results(self, timeout: float) -> bool:
        reader = getattr(self._results, "_reader", None)
        if reader is not None:
            return reader.poll(timeout)
        time.sleep(timeout)  # pragma: no cover - SimpleQueue without _reader
        return not self._results.empty()  # pragma: no cover

    def _kill_worker(self, wid: int) -> None:
        proc = self._procs.get(wid)
        if proc is not None and proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=2.0)

    def _recover(self, dead: list[int], pending: dict[int, dict]) -> None:
        """Retire the pool generation and replay pending units in-process.

        The whole generation goes, not just the dead worker: a SIGKILLed
        worker can die holding a queue lock, and a surviving worker still
        executing a unit from this flush must never write into the arena
        after it is reused.  Replay runs the same kernel over the parent's
        own mapping, in ascending unit order -- bit-identical output by the
        determinism contract.
        """
        self.deaths += len(dead)
        metrics.family("repro_parallel_worker_deaths_total").inc(len(dead))
        recorder.record(
            "parallel.worker_death",
            severity="error",
            workers=sorted(dead),
            pending_units=sorted(pending),
        )
        self._teardown_procs()
        replay = metrics.family("repro_parallel_replayed_units_total")
        for unit in sorted(pending):
            _execute_unit(pending[unit], self.arena.buffer)
            self.replayed_units += 1
            replay.inc()
        recorder.record(
            "parallel.replay",
            severity="warn",
            units=sorted(pending),
            replayed_units=self.replayed_units,
        )
        self._spawn_all()


# ----------------------------------------------------------------------
# kernel-facing entry points
# ----------------------------------------------------------------------
def dispatch_conv(data: np.ndarray, wtaps: np.ndarray, **args) -> np.ndarray:
    """The fused scalar conv contraction (keywords of
    :meth:`WorkerPool.run_conv`): the pool's units when one is configured
    and the layer splits, else one whole-range unit in this process."""
    pool = active_pool()
    out = pool.run_conv(data, wtaps, **args) if pool is not None else None
    return out if out is not None else _run_whole("conv", data, wtaps, args)


def dispatch_dense(fd: np.ndarray, wmat: np.ndarray, **args) -> np.ndarray:
    """The fused scalar dense contraction (keywords of
    :meth:`WorkerPool.run_dense`), pooled or in-process as above."""
    pool = active_pool()
    out = pool.run_dense(fd, wmat, **args) if pool is not None else None
    return out if out is not None else _run_whole("dense", fd, wmat, args)
