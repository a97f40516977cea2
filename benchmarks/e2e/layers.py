"""Per-layer metrics of one traced run.

Times are wall milliseconds **per operation** (a request, a wave, a block
replay, an inference), averaged over the traced operations, so the rows of
one workload can be compared with its ``latency_p50_ms``.  ``*_ms`` of a
callable is its inclusive time; ``*_self_ms`` / ``self_ms`` leave out what
wrapped callees cover.  Counts are per operation (or per image where the
name says so) and repeat exactly for equal seeds.

Counts the program already returns -- ECALL calls, bytes and modelled
overhead on the result traces, ``loop.report()``, scheduler and fleet
statistics -- are read from there, not re-derived from spans.
"""

from __future__ import annotations

import statistics
import time

from repro.he import parallel

import spans
from workloads import MAX_BATCH, MODEL

ECALLS = ("activation_pool", "activation_pool_simd", "pack_slots", "unpack_slots")
SETUP_PHASES = ("train", "server_build", "provision", "pool_encrypt", "warmup")


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def setup_metrics(setups: list[dict[str, float]], import_s: float) -> dict[str, float]:
    """Median of every set-up phase over the run's set-ups, plus the two
    costs the median hides: the import and the first (cold-process) set-up."""
    metrics = {
        f"setup.{phase}_s": statistics.median(s.get(phase, 0.0) for s in setups)
        for phase in SETUP_PHASES
    }
    metrics["setup.import_s"] = import_s
    metrics["setup.first_s"] = setups[0]["total"]
    metrics["client.session.establish_ms"] = 1e3 * statistics.median(
        s.get("establish", 0.0) for s in setups
    )
    return metrics


def span_metrics(
    by_name: dict, by_layer: dict, operations: int, images: int
) -> dict[str, float]:
    """Times and call counts from the benchmark's own spans."""
    zero = {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}

    def ms(row: dict, field: str = "inclusive_s", per: int = operations) -> float:
        return 1e3 * row[field] / per

    def name(span_name: str) -> dict:
        return by_name.get(span_name, zero)

    def layer(layer_name: str) -> dict:
        return by_layer.get(layer_name, zero)

    metrics = {
        "client.session.encrypt_ms_per_image": ms(name("client.session.encrypt"), per=images),
        "client.session.decrypt_ms_per_image": ms(name("client.session.decrypt"), per=images),
        "he.encryptor.busy_ms": ms(layer("he.encryptor")),
        "he.encryptor.calls": layer("he.encryptor")["calls"] / operations,
        "he.decryptor.busy_ms": ms(layer("he.decryptor")),
        "he.decryptor.calls": layer("he.decryptor")["calls"] / operations,
        "he.batching.pack_coefficients_ms": ms(name("he.batching.pack_coefficients")),
        "he.polyring.pointwise_mul_ms": ms(name("he.polyring.pointwise_mul")),
        "he.evaluator.multiply_plain_ms": ms(name("he.evaluator.multiply_plain")),
        "he.evaluator.multiply_ms": ms(name("he.evaluator.multiply")),
        "he.evaluator.relinearize_ms": ms(name("he.evaluator.relinearize")),
        "he.ntt.busy_ms": ms(layer("he.ntt")),
        "he.ntt.forward_calls": name("he.ntt.forward")["calls"] / operations,
        "he.ntt.inverse_calls": name("he.ntt.inverse")["calls"] / operations,
        "core.heops.conv_ms": ms(name("core.heops.conv")),
        "core.heops.dense_ms": ms(name("core.heops.dense")),
        "sgx.ecall.busy_ms": ms(layer("sgx.ecall")),
        "core.server.infer_self_ms": ms(name("core.server.infer"), "self_s"),
        "serve.scheduler.flush_ms": ms(name("serve.scheduler.run_batch")),
        "serve.scheduler.self_ms": ms(layer("serve.scheduler"), "self_s"),
        "serve.scheduler.flushes": name("serve.scheduler.run_batch")["calls"] / operations,
        "serve.loop.run_ms": ms(name("serve.loop.run")),
        "serve.loop.self_ms": ms(layer("serve.loop"), "self_s"),
        "he.parallel.run_ms": ms(layer("he.parallel")),
        "graph.executor.run_ms": ms(name("graph.executor.run")),
        "core.cryptonets.infer_ms": ms(name("core.cryptonets.infer")),
    }
    for ecall in ECALLS:
        metrics[f"sgx.ecall.{ecall}.busy_ms"] = ms(name(f"sgx.ecall.{ecall}"))
    operation = name(spans.OPERATION)
    metrics["trace.unattributed_share"] = operation["self_s"] / operation["inclusive_s"]
    return metrics


def crossing_metrics(result_traces, operations: int, images: int) -> dict[str, float]:
    """ECALL counts from the span trees the program attaches to its results."""
    ecalls = [span for trace in result_traces for span in trace.ecalls()]
    moved = sum(s.attrs.get("bytes_in", 0) + s.attrs.get("bytes_out", 0) for s in ecalls)
    return {
        "sgx.ecall.calls_per_image": len(ecalls) / images,
        "sgx.ecall.bytes_per_image": moved / images,
        "sgx.ecall.overhead_sim_ms": 1e3 * sum(s.overhead_s for s in ecalls) / operations,
    }


def serving_metrics(workload, by_name: dict) -> dict[str, float]:
    """Scheduler, loop, fleet and worker-pool counts of a hybrid workload
    (all zero where the workload does not use the layer)."""
    metrics = dict.fromkeys(
        (
            "serve.scheduler.occupancy_mean",
            "serve.loop.flushes",
            "serve.loop.occupancy_mean",
            "serve.loop.shed",
            "serve.loop.p99_queue_wait_virtual_ms",
            "serve.loop.model_flush_ratio",
            "fleet.dispatch_share_max",
            "fleet.failovers",
            "he.parallel.units",
            "he.parallel.flush_speedup_w2",
        ),
        0.0,
    )
    server = getattr(workload, "server", None)
    if server is None:
        return metrics
    stats = server.scheduler.stats
    if stats.flushes:
        metrics["serve.scheduler.occupancy_mean"] = (
            stats.packed_images / stats.flushes / server.scheduler.capacity
        )
        dispatched = server.fleet.dispatched_images()
        metrics["fleet.dispatch_share_max"] = max(dispatched.values()) / sum(
            dispatched.values()
        )
    metrics["fleet.failovers"] = float(len(server.fleet.retired_replicas()))
    loop = getattr(workload, "last_loop", None)
    if loop is None:
        return metrics
    report = loop.report()
    metrics["serve.loop.flushes"] = float(report["flushes"])
    metrics["serve.loop.occupancy_mean"] = report["occupancy_mean"]
    metrics["serve.loop.shed"] = float(report["shed"] + report["evicted"])
    metrics["serve.loop.p99_queue_wait_virtual_ms"] = 1e3 * report["p99_queue_wait_s"]
    # Every traced operation replays the same block, so the last loop's
    # modelled flush durations stand for each of them.
    modelled = by_name["serve.loop.run"]["calls"] * sum(
        loop.config.service_model.flush_s(f["images"]) for f in loop.flush_log
    )
    metrics["serve.loop.model_flush_ratio"] = (
        by_name["serve.scheduler.run_batch"]["inclusive_s"] / modelled
    )
    pool = parallel.active_pool()
    if pool is not None:
        metrics["he.parallel.units"] = pool.dispatched_units / stats.flushes
    metrics["he.parallel.flush_speedup_w2"] = flush_speedup(workload)
    return metrics


def flush_speedup(workload, repeats: int = 2) -> float:
    """Wall time of the same full flush with one flush worker over the time
    with two; the decrypted logits must not depend on the worker count."""
    requests = [workload.pool[i % len(workload.pool)] for i in range(MAX_BATCH)]
    scheduler = workload.server.scheduler
    best: dict[int, float] = {}
    logits: dict[int, list] = {}
    for workers in (1, 2):
        with parallel.use(workers):
            walls = []
            for _ in range(repeats + 1):  # the first builds the pool
                start = time.perf_counter()
                responses = [scheduler.submit(MODEL, ct) for ct in requests]
                scheduler.drain()
                walls.append(time.perf_counter() - start)
            best[workers] = min(walls[1:])
            logits[workers] = [
                workload.client.decrypt_logits(r.result()).tolist() for r in responses
            ]
    if logits[1] != logits[2]:
        raise AssertionError("flush results depend on the worker count")
    return best[1] / best[2]


def layer_metrics(workload, recorder: spans.Recorder, result_traces, operations, images):
    """Every span-, result- and statistics-derived metric of a traced run."""
    by_name = recorder.totals()
    return {
        **span_metrics(by_name, recorder.layer_totals(), operations, images),
        **crossing_metrics(result_traces, operations, images),
        **serving_metrics(workload, by_name),
    }
