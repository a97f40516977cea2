"""One scalar-contraction kernel for conv and fc (DESIGN.md §10, §15).

``repro.he.contraction`` holds the only definition of the fused int64
contraction; the in-process run, the pool's workers and death-replay all
execute it.  The two exact facts about a weight operand -- its all-zero
columns and whether the bias fits the accumulator's slack -- are worked out
once at encode time and ride on the encoded weights, so they apply on every
path; the encoded weights keep the integers they
were built from, and the per-tap reference loop is the only fallback.  The
oracle context (:mod:`repro.he.oracle`) encodes weights that never fuse, so
its layers run that loop: the byte-level reference of every test here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.core import HybridPipeline, heops, parameters_for_pipeline
from repro.faults import FaultPlan, FaultRule
from repro.he import (
    Context,
    Encryptor,
    Evaluator,
    KeyGenerator,
    OperationCounter,
    ScalarEncoder,
    contraction,
    modmath,
    oracle,
    parallel,
)
from repro.he.params import EncryptionParams
from tests.graph.kinds import images_for, single_block_model

DEGREE = 64


@pytest.fixture(autouse=True)
def pristine_parallel_state():
    parallel.configure(None)
    parallel.shutdown()
    yield
    parallel.configure(None)
    parallel.shutdown()


def make_rig(plain_bits: int) -> dict:
    params = EncryptionParams(
        poly_degree=DEGREE,
        coeff_primes=tuple(modmath.ntt_primes(30, DEGREE, 2)),
        plain_modulus=1 << plain_bits,
        name=f"one_kernel_t{plain_bits}",
    )
    context = Context(params)
    rng = np.random.default_rng(17)
    keys = KeyGenerator(context, rng).generate()
    return {
        "context": context,
        "oracle": oracle.Context(params),
        "encoder": ScalarEncoder(context),
        "encryptor": Encryptor(context, keys.public, rng),
        "max_terms": context.ring.max_sum_terms,
    }


@pytest.fixture(scope="module")
def rig():
    return make_rig(20)


@pytest.fixture(scope="module")
def wide_rig():
    """A 30-bit ``t``: weights near ``2^28`` break the int64 bound."""
    return make_rig(30)


def encrypt(rig, values):
    return rig["encryptor"].encrypt(rig["encoder"].encode(values))


def run_layer(rig, layer, ct, weights, context=None):
    """One layer call on a fresh counter: (ciphertext bytes, op tallies)."""
    context = rig["context"] if context is None else context
    counter = OperationCounter()
    out = layer(Evaluator(context, counter), ScalarEncoder(context), ct, weights)
    assert out.is_ntt
    return out.data.tobytes(), dict(counter.counts)


def oracle_run(rig, layer, ct, weight, bias, stride=1):
    """``run_layer`` over the oracle context, which encodes the weights
    unfused: the per-tap reference loop."""
    context = rig["oracle"]
    evaluator, encoder = Evaluator(context), ScalarEncoder(context)
    if layer is heops.he_conv2d:
        weights = heops.encode_conv_weights(evaluator, encoder, weight, bias, stride)
    else:
        weights = heops.encode_dense_weights(evaluator, encoder, weight, bias)
    assert not weights.fused
    return run_layer(rig, layer, ct, weights, context)


def planted_conv(rig, rng):
    """Conv weights whose taps 1, 4 and 13 are zero in every filter, the
    taps that survive, and the integers ``(weight, bias)``."""
    w = rng.integers(-9, 10, size=(3, 2, 3, 3))
    w[w == 0] = 1
    flat = w.reshape(3, -1)
    flat[:, [1, 4, 13]] = 0
    keep = tuple(i for i in range(flat.shape[1]) if i not in (1, 4, 13))
    bias = rng.integers(-50, 50, size=3)
    weights = heops.encode_conv_weights(Evaluator(rig["context"]), rig["encoder"], w, bias, 1)
    return weights, keep, (w, bias)


def planted_dense(rig, rng):
    w = rng.integers(-9, 10, size=(12, 5))
    w[w == 0] = 1
    w[[0, 7], :] = 0
    keep = tuple(i for i in range(12) if i not in (0, 7))
    bias = rng.integers(-50, 50, size=5)
    weights = heops.encode_dense_weights(Evaluator(rig["context"]), rig["encoder"], w, bias)
    return weights, keep, (w, bias)


@pytest.fixture()
def bias_passes(monkeypatch):
    """Batch shapes of every separate ``add_plain_operand`` bias pass."""
    calls = []
    original = Evaluator.add_plain_operand

    def spy(self, ct, operand):
        calls.append(ct.batch_shape)
        return original(self, ct, operand)

    monkeypatch.setattr(Evaluator, "add_plain_operand", spy)
    return calls


@pytest.fixture()
def kernel_runs(monkeypatch):
    """``(kind, rows, keep, bias folded)`` of every kernel run in this
    process: the in-process whole-range unit and death-replay."""
    ran = []
    for kind, kernel in list(parallel.KERNELS.items()):
        assert kernel is getattr(contraction, f"{kind}_rows")

        def spy(*args, _kind=kind, _kernel=kernel, **kwargs):
            ran.append((_kind, kwargs["rows"], kwargs["keep"], kwargs["bias"] is not None))
            return _kernel(*args, **kwargs)

        monkeypatch.setitem(parallel.KERNELS, kind, spy)
    return ran


@pytest.fixture()
def pool_tasks(monkeypatch):
    """``(kind, keep, bias folded)`` of every unit handed to the pool."""
    sent = []
    original = parallel.WorkerPool._run_units

    def spy(self, tasks):
        sent.extend((t["kind"], t["keep"], "bias_off" in t) for t in tasks)
        return original(self, tasks)

    monkeypatch.setattr(parallel.WorkerPool, "_run_units", spy)
    return sent


class TestRewritesReachEveryPath:
    """The surviving taps and the bias fold are decided at encode time and
    are arguments of the kernel: every path skips the zero columns and folds
    the bias, byte-identical to the per-tap oracle, and the folded bias
    never takes the separate ``add_plain_operand`` pass."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize(
        "layer,planted,image",
        [(heops.he_conv2d, planted_conv, (2, 6, 6)), (heops.he_dense, planted_dense, (3, 2, 2))],
        ids=["conv", "dense"],
    )
    def test_plan_on_the_pool(
        self, rig, bias_passes, kernel_runs, pool_tasks, layer, planted, image, batch
    ):
        rng = np.random.default_rng(batch)
        weights, keep, raw = planted(rig, rng)
        assert (weights.keep, weights.fold_bias, weights.fused) == (keep, True, True)
        ct = encrypt(rig, rng.integers(-20, 20, size=(batch, *image)))
        expected = oracle_run(rig, layer, ct, *raw)
        assert kernel_runs == []
        with parallel.use(1):
            assert run_layer(rig, layer, ct, weights) == expected
        assert [(k, f) for _, _, k, f in kernel_runs] == [(keep, True)]
        with parallel.use(2):
            assert run_layer(rig, layer, ct, weights) == expected
            assert parallel.active_pool().dispatched_units == len(pool_tasks) > 0
        assert {(k, f) for _, k, f in pool_tasks} == {(keep, True)}
        assert bias_passes == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_optimizer_off_still_skips_and_folds(
        self, bias_passes, kernel_runs, pool_tasks, workers
    ):
        """The benchmark's setting, the graph as built, on the planted-zero
        model runs conv and fc without their zero columns and
        with the bias folded -- in-process, on the pool, and when the
        flush's worker is killed and its units replay here."""
        model = single_block_model()
        assert not model.blocks[0].weight[:, 0, 0, 0].any()
        assert not model.dense_weight[:2].any()
        conv = model.blocks[0].weight.reshape(model.blocks[0].weight.shape[0], -1)
        keeps = {
            "conv": tuple(np.flatnonzero(conv.any(axis=0))),
            "dense": tuple(np.flatnonzero(model.dense_weight.any(axis=1))),
        }
        assert 0 not in keeps["conv"] and not {0, 1} & set(keeps["dense"])
        images = images_for("served")[:3]
        with parallel.use(workers):
            pipe = HybridPipeline(model, parameters_for_pipeline(model, 256), seed=7)
            healthy = pipe.infer(images).logits
            if workers == 1:
                seen = [(kind, k, f) for kind, _, k, f in kernel_runs]
            else:
                assert kernel_runs == []
                seen = pool_tasks
            assert set(seen) == {(kind, keep, True) for kind, keep in keeps.items()}
            if workers == 2:
                kill = FaultPlan(3, rules=[FaultRule(site="parallel.worker", name="0")])
                with faults.armed(kill):
                    replayed = pipe.infer(images).logits
                assert parallel.active_pool().deaths == 1
                assert np.array_equal(replayed, healthy)
                assert kernel_runs and all(
                    (k, f) == (keeps[kind], True) for kind, _, k, f in kernel_runs
                )
        assert bias_passes == []

    @pytest.mark.parametrize("kind", ["conv", "dense"])
    def test_bias_stays_unfolded_at_the_int64_edge(
        self, wide_rig, bias_passes, kernel_runs, kind
    ):
        """``T * max|w| * (p - 1)`` fits int64 exactly but one more residue
        term does not: the layer still runs fused, with the bias as its own
        pass, byte-identical to the oracle."""
        rng = np.random.default_rng(10)
        max_terms = wide_rig["max_terms"]
        terms = 32
        w_max, left = divmod(max_terms, terms)
        assert left == 0 and w_max <= wide_rig["context"].plain_modulus // 2
        evaluator = Evaluator(wide_rig["context"])
        if kind == "conv":
            w = rng.integers(1, 1 << 20, size=(2, 2, 4, 4))
            w[1, 0, 2, 3] = -w_max
            bias = np.array([5, -7])
            weights = heops.encode_conv_weights(evaluator, wide_rig["encoder"], w, bias, 1)
            values, layer = weights.weight_taps, heops.he_conv2d
            ct = encrypt(wide_rig, rng.integers(-20, 20, size=(2, 2, 5, 5)))
        else:
            w = rng.integers(1, 1 << 20, size=(terms, 3))
            w[4, 1] = w_max
            bias = np.array([1, 2, 3])
            weights = heops.encode_dense_weights(evaluator, wide_rig["encoder"], w, bias)
            values, layer = weights.weight_matrix, heops.he_dense
            ct = encrypt(wide_rig, rng.integers(-20, 20, size=(2, terms)))
        assert contraction.bound_ok(values, max_terms)
        assert not contraction.bound_ok(values, max_terms, slack=1)
        assert (weights.keep, weights.fold_bias, weights.fused) == (None, False, True)
        reference = oracle_run(wide_rig, layer, ct, w, bias)
        with parallel.use(1):  # the spy sees the in-process unit
            assert run_layer(wide_rig, layer, ct, weights) == reference
        assert [(k, f) for _, _, k, f in kernel_runs] == [(None, False)]
        assert len(bias_passes) == 1


class TestOneKernelEverywhere:
    def test_workers_replay_and_in_process_run_the_same_function(
        self, rig, kernel_runs
    ):
        """The pool's kernel table holds ``contraction``'s two functions
        (``kernel_runs`` checks identity before wrapping them), and both the
        in-process layer call and a killed flush's replay go through that
        table in the parent."""
        rng = np.random.default_rng(2)
        weights, _, _ = planted_conv(rig, rng)
        ct = encrypt(rig, rng.integers(-20, 20, size=(4, 2, 6, 6)))
        with parallel.use(1):
            expected = run_layer(rig, heops.he_conv2d, ct, weights)
        assert [(kind, rows) for kind, rows, _, _ in kernel_runs] == [("conv", (0, 4))]

        del kernel_runs[:]
        kill = FaultPlan(3, rules=[FaultRule(site="parallel.worker", name="0")])
        with parallel.use(2):
            with faults.armed(kill):
                replayed = run_layer(rig, heops.he_conv2d, ct, weights)
            assert parallel.active_pool().deaths == 1
        assert replayed == expected
        # Worker 0 dies at the first dispatch: every unit replays here.
        assert [rows for _, rows, _, _ in kernel_runs] == [(0, 1), (1, 2), (2, 3), (3, 4)]

    @pytest.mark.parametrize("taps_per_chunk", [6, 4], ids=["multiple", "ragged"])
    def test_tap_chunking_keeps_the_reference_bytes(
        self, rig, monkeypatch, taps_per_chunk
    ):
        """The window gather is capped at ``_TAP_CHUNK_ELEMS``: an 18-tap
        conv split into three whole chunks, or four and a remainder, adds
        the same exact int64 terms as the per-tap loop."""
        rng = np.random.default_rng(5)
        w = rng.integers(-9, 10, size=(3, 2, 3, 3))
        w[w == 0] = 1
        bias = rng.integers(-50, 50, size=3)
        weights = heops.encode_conv_weights(Evaluator(rig["context"]), rig["encoder"], w, bias, 1)
        assert weights.keep is None and weights.weight_taps.shape[1] == 18
        ct = encrypt(rig, rng.integers(-20, 20, size=(2, 2, 6, 6)))
        lanes = 2 * 4 * 4
        monkeypatch.setattr(
            heops, "_TAP_CHUNK_ELEMS", taps_per_chunk * lanes * ct.data[0, 0, 0, 0].size
        )
        chunks = []
        conv_rows = parallel.KERNELS["conv"]
        monkeypatch.setitem(
            parallel.KERNELS,
            "conv",
            lambda *a, **kw: (chunks.append(kw["chunk"]), conv_rows(*a, **kw))[1],
        )
        reference = oracle_run(rig, heops.he_conv2d, ct, w, bias)
        with parallel.use(1):  # the spy sees the in-process unit
            assert run_layer(rig, heops.he_conv2d, ct, weights) == reference
        assert chunks == [taps_per_chunk]

    def test_he_substrate_does_not_import_core(self):
        import pathlib

        import repro.he

        for path in pathlib.Path(repro.he.__file__).parent.glob("*.py"):
            source = path.read_text()
            assert "from repro.core" not in source, path.name
            assert "import repro.core" not in source, path.name

    def test_the_oracle_stays_out_of_the_hot_path(self):
        """The reference formulas are a value a caller builds: no module but
        the oracle's own imports it, no kernel profile module exists, and no
        source reads a process-wide kernel setting."""
        import ast
        import importlib
        import pathlib

        import repro

        def imports_oracle(node):
            if isinstance(node, ast.Import):
                return any(alias.name == "repro.he.oracle" for alias in node.names)
            if isinstance(node, ast.ImportFrom):
                return node.module == "repro.he.oracle" or (
                    node.module == "repro.he"
                    and any(alias.name == "oracle" for alias in node.names)
                )
            return False

        oracle_path = pathlib.Path(oracle.__file__)
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            source = path.read_text()
            assert "kernels.active" not in source, path
            if path != oracle_path:
                assert not any(map(imports_oracle, ast.walk(ast.parse(source)))), path
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.he.kernels")


class TestWeightsKeepTheirIntegers:
    def test_single_block_model(self, rig, q_sigmoid):
        encoded = heops.encode_model_weights(
            Evaluator(rig["context"]), rig["encoder"], q_sigmoid
        )
        f = q_sigmoid.blocks[0].weight.shape[0]
        assert (q_sigmoid.blocks[0].weight < 0).any() and (q_sigmoid.dense_weight < 0).any()
        assert encoded.conv.weight_taps.dtype == np.int64
        assert np.array_equal(
            encoded.conv.weight_taps, q_sigmoid.blocks[0].weight.reshape(f, -1)
        )
        assert np.array_equal(encoded.dense.weight_matrix, q_sigmoid.dense_weight.T)

    def test_edge_value_encodes_like_the_reference_operand(self, rig):
        """``-t/2`` is stored as the ``+t/2`` the encoder's constant lifts
        to, so the fused kernel stays byte-identical to the oracle even
        there."""
        half = rig["context"].plain_modulus // 2
        w = np.array([[[[-half, 3], [-2, half]]]], dtype=np.int64)
        weights = heops.encode_conv_weights(
            Evaluator(rig["context"]), rig["encoder"], w, np.array([1]), 1
        )
        assert weights.weight_taps.tolist() == [[half, 3, -2, half]]
        ct = encrypt(rig, np.arange(9).reshape(1, 1, 3, 3))
        reference = oracle_run(rig, heops.he_conv2d, ct, w, np.array([1]))
        assert run_layer(rig, heops.he_conv2d, ct, weights) == reference


class TestPastTheBoundRunsTheReferenceLoop:
    """``T * max|w| * (p_max - 1) > 2^63 - 1``: the production kernels have
    no generic path left, the layer runs the per-tap loop itself."""

    @pytest.fixture()
    def no_kernel(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the scalar kernel ran past its int64 bound")

        monkeypatch.setattr(parallel, "dispatch_conv", fail)
        monkeypatch.setattr(parallel, "dispatch_dense", fail)

    def test_conv(self, wide_rig, no_kernel):
        rng = np.random.default_rng(8)
        w = rng.integers(-(1 << 28), 1 << 28, size=(2, 4, 4, 4))
        w[0, 0, 0, 0] = 1 << 28
        bias = np.array([5, -7])
        weights = heops.encode_conv_weights(
            Evaluator(wide_rig["context"]), wide_rig["encoder"], w, bias, 1
        )
        assert weights.weight_taps.shape == (2, 64)
        assert not contraction.bound_ok(weights.weight_taps, wide_rig["max_terms"])
        ct = encrypt(wide_rig, rng.integers(-20, 20, size=(2, 4, 5, 5)))
        reference = oracle_run(wide_rig, heops.he_conv2d, ct, w, bias)
        assert not weights.fused and not weights.fold_bias
        with parallel.use(2):
            assert run_layer(wide_rig, heops.he_conv2d, ct, weights) == reference

    def test_dense(self, wide_rig, no_kernel):
        rng = np.random.default_rng(9)
        w = rng.integers(-(1 << 28), 1 << 28, size=(64, 3))
        w[0, 0] = -(1 << 28)
        bias = np.array([1, 2, 3])
        weights = heops.encode_dense_weights(
            Evaluator(wide_rig["context"]), wide_rig["encoder"], w, bias
        )
        assert not contraction.bound_ok(weights.weight_matrix, wide_rig["max_terms"])
        ct = encrypt(wide_rig, rng.integers(-20, 20, size=(2, 64)))
        reference = oracle_run(wide_rig, heops.he_dense, ct, w, bias)
        assert run_layer(wide_rig, heops.he_dense, ct, weights) == reference
