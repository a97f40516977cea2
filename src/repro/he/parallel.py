"""Inert names kept for the wall-clock benchmark; nothing here runs work.

Every contraction runs once, whole-range, in its caller (DESIGN.md §15).
``benchmarks/e2e`` still binds these names: ``workloads.py``'s ``close``
calls :func:`shutdown`, ``layers.py``'s ``serving_metrics`` reads
:func:`active_pool` and ``flush_speedup`` enters :func:`use`, and
``spans.py``'s ``TARGETS`` wraps ``WorkerPool.run_conv`` / ``run_dense``.
ROADMAP item 1(c) deletes them with the benchmark's next change.
"""

from contextlib import contextmanager


@contextmanager
def use(workers: int | None):
    yield


def shutdown() -> None:
    pass


def active_pool() -> None:
    return None


class WorkerPool:
    def run_conv(self, *args, **kwargs) -> None:
        raise NotImplementedError

    def run_dense(self, *args, **kwargs) -> None:
        raise NotImplementedError
