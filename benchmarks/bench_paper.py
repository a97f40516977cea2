"""The paper's evaluation as one claims table.

Tables I-V, Figs. 3-6 and 8, the Section VII-B accuracy claim and five
ablations are the rows of ``EXPERIMENTS``, one per DESIGN.md §3 entry:
``measure(rig, scale)`` runs the workload once and returns plain numbers,
``render(numbers)`` is the text of ``results/<name>.txt``, and every claim is
``(statement, predicate(numbers), expected)`` with ``expected`` either
``HOLDS`` or ``Deviates(reason)``.  The one parametrised test measures a
row, writes its results file and its block of EXPERIMENTS.md from the same
report, and fails iff an outcome differs from its recorded expectation -- in
either direction: a ``holds`` that breaks, or a recorded deviation that
starts holding ("fixed, update the record").

Run ``REPRO_BENCH_SCALE=small python -m pytest benchmarks/bench_paper.py``
(CI's ``paper-claims`` job).  ``small`` is the scale EXPERIMENTS.md quotes
and the one the expectations were recorded at.  At ``tiny`` / ``paper`` the
exactness claims (``exact=True``: logits, op counts, budgets -- nothing a
clock produced) gate exactly as at ``small``; shape claims (orderings and
ratios of timings) are reported as informational and never fail the run.

Timing claims are ratios of min-of-N wall or simulated-clock samples, and an
ordering ``a > b`` is read through ``exceeds`` with ``TOLERANCE``, so the job
goes red when a claim flips, not when a timing wobbles.
"""

from __future__ import annotations

import pathlib
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.bench import (
    BenchScale,
    Summary,
    current_scale,
    format_series,
    format_table,
    format_trace,
    hybrid_parameters,
    markdown_table,
    measure_repeated,
    measure_simulated,
    pure_he_parameters,
    trained_models,
)
from repro.core import (
    CryptonetsPipeline,
    HybridPipeline,
    InferenceEnclave,
    PlaintextPipeline,
    PoolingPlacementPolicy,
    PoolStrategy,
    SimdHybridPipeline,
    encode_conv_weights,
    he_conv2d,
    he_scaled_mean_pool,
    parameters_for_pipeline,
    pure_he_modulus_bits_for_depth,
    relinearize_refresh,
    sgx_refresh,
    sgx_refresh_one_by_one,
)
from repro.errors import ReproError
from repro.he import Encryptor, Evaluator, OperationCounter, ScalarEncoder
from repro.he.batching import read_lanes, write_lanes
from repro.nn import (
    QuantizedCNN,
    accuracy,
    accuracy_score,
    agreement_rate,
    deep_cnn,
    synthetic_mnist,
    train,
)
from repro.nn.layers import Sigmoid
from repro.obs import reconcile
from repro.sgx import (
    PAGE_SIZE,
    Enclave,
    SgxCostModel,
    SgxPlatform,
    bare_metal_cost_model,
    ecall,
    paper_cost_model,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
EXPERIMENTS_MD = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"
RECORDED_SCALE = "small"
# An ordering ``a > b`` of two timings is read as ``a > (1 - TOLERANCE) * b``;
# every ordering recorded as holding measures a / b >= 1.4 at ``small``.
TOLERANCE = 0.10

HOLDS = "holds"
RECORDED = "deviates (recorded)"
FAILS = "fails"


# ----------------------------------------------------------------------
# the table's row types and the one measure-render-claim loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Deviates:
    """Recorded expectation: the claim does not hold on this substrate."""

    reason: str


@dataclass(frozen=True)
class Claim:
    statement: str
    predicate: Callable[[dict], bool]
    expected: str | Deviates = HOLDS
    exact: bool = False  # gates at every scale, not only at RECORDED_SCALE


@dataclass(frozen=True)
class Experiment:
    name: str
    measure: Callable[["Rig", BenchScale], dict]
    render: Callable[[dict], str]
    claims: tuple[Claim, ...] = ()


@dataclass(frozen=True)
class Outcome:
    statement: str
    status: str  # HOLDS | RECORDED | FAILS | "<measured> (informational at <scale>)"
    note: str = ""


@dataclass(frozen=True)
class Report:
    name: str
    text: str | None  # the rendered numbers; None when measure or render raised
    outcomes: tuple[Outcome, ...]
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and all(o.status != FAILS for o in self.outcomes)

    def claims(self, table=format_table) -> str:
        rows = [[o.status, o.statement, o.note] for o in self.outcomes]
        rows = rows or [["-", "no claim: the numbers are the record", ""]]
        return table(["outcome", "claim", "note"], rows)


def judge(claim: Claim, numbers: dict, scale_name: str) -> Outcome:
    """One claim's outcome against its recorded expectation."""
    try:
        held = bool(claim.predicate(numbers))
    except Exception:  # a broken predicate is that claim's failure, reported
        return Outcome(claim.statement, FAILS, "predicate raised: " + traceback.format_exc())
    recorded_holds = claim.expected == HOLDS
    if held == recorded_holds:
        return Outcome(
            claim.statement,
            HOLDS if held else RECORDED,
            "" if recorded_holds else claim.expected.reason,
        )
    measured = HOLDS if held else "deviates"
    recorded = HOLDS if recorded_holds else "deviates"
    if not claim.exact and scale_name != RECORDED_SCALE:
        return Outcome(
            claim.statement,
            f"{measured} (informational at {scale_name})",
            f"recorded at {RECORDED_SCALE}: {recorded}",
        )
    if held:
        return Outcome(
            claim.statement, FAILS, "recorded as deviating but now holds: fixed, update the record"
        )
    return Outcome(claim.statement, FAILS, "recorded as holding but no longer does")


def evaluate(experiment: Experiment, rig: "Rig", scale: BenchScale) -> Report:
    """Measure one row once, render it and judge every claim."""
    try:
        numbers = {"scale": scale.name, **experiment.measure(rig, scale)}
        text = experiment.render(numbers)
    except Exception:
        # The boundary that keeps the table going: a crashed row is that
        # row's failure, with its traceback, and hides no other row.
        outcomes = tuple(Outcome(c.statement, FAILS, "measure raised") for c in experiment.claims)
        return Report(experiment.name, None, outcomes, error=traceback.format_exc())
    outcomes = tuple(judge(claim, numbers, scale.name) for claim in experiment.claims)
    return Report(experiment.name, text, outcomes)


def publish(
    report: Report,
    results_dir: pathlib.Path = RESULTS_DIR,
    experiments_md: pathlib.Path = EXPERIMENTS_MD,
) -> None:
    """Write ``results/<name>.txt`` and the row's measured block of
    EXPERIMENTS.md from the same report, so prose and data share a source."""
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{report.name}.txt").write_text(f"{report.text}\n\n{report.claims()}\n")
    begin, end = f"<!-- measured:{report.name} -->", f"<!-- /measured:{report.name} -->"
    head, opened, rest = experiments_md.read_text().partition(begin)
    _, closed, tail = rest.partition(end)
    if not (opened and closed):
        raise ReproError(f"{experiments_md.name} has no measured block for {report.name}")
    block = f"```\n{report.text}\n```\n\n{report.claims(markdown_table)}"
    experiments_md.write_text(f"{head}{begin}\n{block}\n{end}{tail}")


# ----------------------------------------------------------------------
# the shared rig
# ----------------------------------------------------------------------
class Side:
    """One parameter set, deployed: the trusted enclave generates the FV keys,
    a FakeSGX handle seeded alike holds the same pair (the paper's control
    group), and the host encrypts under the enclave's public key."""

    def __init__(self, params, cost_model: SgxCostModel | None = None, seed: int = 2021):
        self.params = params
        self.platform = SgxPlatform(cost_model=cost_model)
        self.clock = self.platform.clock
        self.trusted = self.platform.load_enclave(InferenceEnclave, params, seed)
        self.fake = self.platform.load_enclave(InferenceEnclave, params, seed, trusted=False)
        public = self.trusted.ecall("generate_keys")
        self.fake.ecall("generate_keys")
        self.context = public.context
        self.rng = np.random.default_rng(seed)
        self.encoder = ScalarEncoder(self.context)
        self.encryptor = Encryptor(self.context, public, self.rng)
        self.counter = OperationCounter()
        self.evaluator = Evaluator(self.context, self.counter)
        self.decryptor = self.trusted._instance._decryptor
        self.relin = self.trusted.ecall("generate_relin_keys")

    def encrypt(self, values):
        return self.encryptor.encrypt(self.encoder.encode(values))


class Rig:
    """What the rows share: the scale's trained model pair and one
    :class:`Side` per parameter set ``repro.bench`` sizes for it."""

    def __init__(self, scale: BenchScale) -> None:
        self.scale = scale
        self.models = trained_models(scale.name)
        self.q_sigmoid = self.models.quantized_sigmoid()
        self.q_square = self.models.quantized_square()
        self.hybrid = Side(hybrid_parameters(scale.name))
        self.pure_he = Side(pure_he_parameters(scale.name))


def best(fn, repeats: int, clock=None) -> float:
    """Min-of-N seconds of ``fn``: wall clock, or with ``clock`` the simulated
    time (real + modelled SGX overhead) the paper's inside-SGX columns need."""
    return min(measure_simulated(fn, clock, repeats) if clock else measure_repeated(fn, repeats))


def exceeds(a: float, b: float) -> bool:
    """``a > b`` for two timings, read with the stated tolerance."""
    return a > (1.0 - TOLERANCE) * b


def all_exceed(a, b) -> bool:
    return all(exceeds(x, y) for x, y in zip(a, b, strict=True))


def stat_rows(m: dict, labels: dict[str, str], unit: float = 1e3, digits: int = 3) -> list:
    """The paper's ``Average / STD / 96% CI`` row per sample list of ``m``."""
    return [[label, *Summary.of(m[key]).row(unit, digits)] for key, label in labels.items()]


# ----------------------------------------------------------------------
# Tables I-V
# ----------------------------------------------------------------------
def measure_table1(rig: Rig, scale: BenchScale) -> dict:
    side = rig.hybrid
    # Own handles: generate_keys would replace the shared rig's key pair.
    trusted = side.platform.load_enclave(InferenceEnclave, side.params, 1)
    fake = side.platform.load_enclave(InferenceEnclave, side.params, 1, trusted=False)
    return {
        "n": side.params.poly_degree,
        "inside": measure_simulated(
            lambda: trusted.ecall("generate_keys"), side.clock, scale.repeats
        ),
        "outside": measure_simulated(
            lambda: fake.ecall("generate_keys"), side.clock, scale.repeats
        ),
    }


def render_table1(m: dict) -> str:
    return format_table(
        ["", "Average", "STD", "96% CI"],
        stat_rows(m, {"inside": "Inside SGX", "outside": "Outside SGX"}),
        title=(
            f"Table I: key generation time (/ms), n={m['n']}, {len(m['inside'])} reps, "
            f"scale={m['scale']} (paper: inside 49.593, outside 20.201, ratio 2.455)"
        ),
    ) + f"\nratio inside/outside (min of N): {min(m['inside']) / min(m['outside']):.3f}"


def measure_table2(rig: Rig, scale: BenchScale) -> dict:
    side = rig.hybrid
    pixels = rig.q_sigmoid.quantize_images(rig.models.dataset.test_images[: scale.batch_size])
    return {
        "n": side.params.poly_degree,
        "batch": scale.batch_size,
        "image_size": scale.image_size,
        "ciphertexts": side.encrypt(pixels).batch_count,
        "batch_s": measure_repeated(lambda: side.encrypt(pixels), scale.repeats),
    }


def render_table2(m: dict) -> str:
    return format_table(
        ["batchSize", "Average", "STD", "96% CI"],
        stat_rows(m, {"batch_s": str(m["batch"])}, unit=1.0, digits=4),
        title=(
            f"Table II: image encoding and encryption time (/s), "
            f"{m['image_size']}x{m['image_size']} px, n={m['n']}, scale={m['scale']} "
            f"(paper: 157.013 s for 10 images at 28x28)"
        ),
    ) + (
        f"\nper image: {Summary.of(m['batch_s']).mean / m['batch']:.4f} s"
        f"\nciphertexts per batch: {m['ciphertexts']}"
    )


def measure_table3(rig: Rig, scale: BenchScale) -> dict:
    side = rig.hybrid
    logits = side.rng.integers(-10_000, 10_000, size=(scale.batch_size, 10))
    ct = side.encrypt(logits)

    def decode():
        return side.encoder.decode(side.decryptor.decrypt(ct))

    return {
        "n": side.params.poly_degree,
        "batch": scale.batch_size,
        "round_trip": bool(np.array_equal(decode(), logits)),
        "batch_s": measure_repeated(decode, scale.repeats),
    }


def render_table3(m: dict) -> str:
    return format_table(
        ["batchSize", "Average", "STD", "96% CI"],
        stat_rows(m, {"batch_s": str(m["batch"])}),
        title=(
            f"Table III: decryption and decoding of {m['batch']} image inference results "
            f"(/ms), n={m['n']}, scale={m['scale']} (paper: 62.391 ms for 10 images)"
        ),
    ) + f"\nper image result: {Summary.of(m['batch_s']).mean * 1e3 / m['batch']:.3f} ms"


class CryptoBench(Enclave):
    """Exactly the user-side crypto of one :class:`Side`, behind an ECALL
    boundary (Table IV)."""

    def __init__(self, side: Side) -> None:
        super().__init__()
        self._side = side

    @ecall
    def encode_encrypt(self, value: int):
        return self._side.encrypt(value)

    @ecall
    def decrypt_decode(self, ct) -> int:
        return int(self._side.encoder.decode(self._side.decryptor.decrypt(ct)))


def measure_table4(rig: Rig, scale: BenchScale) -> dict:
    side = rig.hybrid
    trusted = side.platform.load_enclave(CryptoBench, side)
    fake = side.platform.load_enclave(CryptoBench, side, trusted=False)
    ct = fake.ecall("encode_encrypt", 99)
    calls = {
        "enc_in": lambda: trusted.ecall("encode_encrypt", 99),
        "enc_out": lambda: fake.ecall("encode_encrypt", 99),
        "dec_in": lambda: trusted.ecall("decrypt_decode", ct),
        "dec_out": lambda: fake.ecall("decrypt_decode", ct),
    }
    return {
        "n": side.params.poly_degree,
        **{key: best(fn, scale.repeats, side.clock) for key, fn in calls.items()},
    }


def render_table4(m: dict) -> str:
    return format_table(
        ["", "Encoding+Encryption", "Decoding+Decryption"],
        [
            ["Inside SGX", f"{m['enc_in'] * 1e3:.3f} ms", f"{m['dec_in'] * 1e3:.3f} ms"],
            ["Outside SGX", f"{m['enc_out'] * 1e3:.3f} ms", f"{m['dec_out'] * 1e3:.3f} ms"],
        ],
        title=(
            f"Table IV: one Encoding+Encryption vs one Decoding+Decryption inside/outside "
            f"SGX (min of N), n={m['n']}, scale={m['scale']} "
            f"(paper: 18.167/12.125 and 5.250/0.368 ms)"
        ),
    ) + (
        f"\nenc ratio: {m['enc_in'] / m['enc_out']:.2f} (paper 1.50)"
        f"  dec ratio: {m['dec_in'] / m['dec_out']:.2f} (paper 14.27)"
    )


def measure_table5(rig: Rig, scale: BenchScale) -> dict:
    side = rig.pure_he
    batch = scale.batch_size * 4
    squared = side.evaluator.square(side.encrypt(side.rng.integers(-50, 50, size=batch)))
    reps = max(3, scale.repeats // 2)
    routes = {
        "relin": lambda: relinearize_refresh(side.evaluator, squared, side.relin, side.clock),
        "single": lambda: sgx_refresh_one_by_one(side.trusted, squared),
        "batched": lambda: sgx_refresh(side.trusted, squared),
    }
    per_ct = {
        key: [s / batch for s in measure_simulated(fn, side.clock, reps)]
        for key, fn in routes.items()
    }
    budget = side.decryptor.invariant_noise_budget
    return {
        "n": side.params.poly_degree,
        "batch": batch,
        **per_ct,
        "budget_refreshed": budget(sgx_refresh(side.trusted, squared).ciphertext),
        "budget_relinearized": budget(side.evaluator.relinearize(squared, side.relin)),
    }


def render_table5(m: dict) -> str:
    labels = {"relin": "Reline", "single": "SGX (1 crossing/ct)", "batched": "SGX (batched)"}
    return format_table(
        ["", "Average", "STD", "96% CI"],
        stat_rows(m, labels),
        title=(
            f"Table V: per-ciphertext noise-reduction time (/ms), batch={m['batch']}, "
            f"n={m['n']}, scale={m['scale']} "
            f"(paper: reline 65.216, SGX single 95.55, SGX batched 23.429)"
        ),
    ) + (
        f"\nSGX (batched) / Reline (min of N): "
        f"{min(m['batched']) / min(m['relin']):.2f} (paper: 0.36)"
        f"\nnoise budget after SGX refresh: {m['budget_refreshed']:.1f} bits, "
        f"after relinearization: {m['budget_relinearized']:.1f} bits"
    )


# ----------------------------------------------------------------------
# Figs. 3-6 and 8
# ----------------------------------------------------------------------
def measure_fig3(rig: Rig, scale: BenchScale) -> dict:
    side = rig.hybrid
    reps = max(4, scale.repeats // 2)

    def encode_time(kernels: int, size: int) -> float:
        weight = side.rng.integers(-31, 32, size=(kernels, 1, size, size))
        bias = side.rng.integers(-31, 32, size=kernels)
        return best(lambda: encode_conv_weights(side.evaluator, side.encoder, weight, bias), reps)

    sizes = [1, 2, 3, 4, 5, 6] if scale.name != "paper" else [1, 3, 5, 7, 9, 11, 13, 15]
    shapes = {  # (kernel count, kernel size) per point: (a) twice, then (b)'s joint sweep
        "K=11": [(11, k) for k in sizes],
        "K=26": [(26, k) for k in sizes],
        "joint": [(4, 2), (8, 3), (12, 4), (16, 5), (20, 6)],
    }
    weights = {key: [c * k * k + c for c, k in points] for key, points in shapes.items()}
    times = {key: [encode_time(c, k) for c, k in points] for key, points in shapes.items()}
    per_weight = [t / w for key in weights for t, w in zip(times[key], weights[key])]
    return {
        "sizes": sizes,
        "weights": weights,
        "times": times,
        "weight_span": max(map(max, weights.values())) / min(map(min, weights.values())),
        "per_weight_spread": max(per_weight) / min(per_weight),
    }


def render_fig3(m: dict) -> str:
    w, t = m["weights"], m["times"]
    return "\n\n".join(
        [
            format_series(
                "kernel_size",
                m["sizes"],
                {
                    "weights(K=11)": w["K=11"],
                    "time_s(K=11)": t["K=11"],
                    "weights(K=26)": w["K=26"],
                    "time_s(K=26)": t["K=26"],
                },
                title=(
                    f"Fig. 3(a): weight encoding time (min of N) vs kernel size at fixed "
                    f"kernel counts 11 and 26, scale={m['scale']}"
                ),
            ),
            format_series(
                "weights",
                w["joint"],
                {"time_s": t["joint"]},
                title="Fig. 3(b): jointly sweeping kernel count and size",
            ),
            f"time per weight, max/min over all {sum(map(len, w.values()))} points: "
            f"{m['per_weight_spread']:.2f} (weight counts span {m['weight_span']:.0f}x)",
        ]
    )


def conv_ops(map_size: int, kernel: int) -> int:
    """C x P count of one feature map, ``(m - k + 1)^2 k^2`` (the paper folds
    the ``k^2 - 1`` adds per output into the same figure)."""
    return (map_size - kernel + 1) ** 2 * kernel * kernel


def measure_fig4(rig: Rig, scale: BenchScale) -> dict:
    side = rig.hybrid
    size = scale.image_size
    step = 1 if scale.name == "paper" else max(1, size // 8)
    kernels = sorted({*range(1, size + 1, step), size})
    ct = side.encrypt(side.rng.integers(0, 50, size=(1, 1, size, size)))
    times, ops = [], []
    for k in kernels:
        weight = side.rng.integers(-15, 16, size=(1, 1, k, k))
        encoded = encode_conv_weights(
            side.evaluator, side.encoder, weight, np.zeros(1, dtype=np.int64)
        )

        def conv():
            return he_conv2d(side.evaluator, side.encoder, ct, encoded)

        side.counter.reset()
        conv()
        ops.append(side.counter.get("ct_plain_mul"))
        times.append(best(conv, max(2, scale.repeats // 5)))
    return {"map": size, "kernels": kernels, "times": times, "ops": ops}


def render_fig4(m: dict) -> str:
    size = m["map"]
    return format_series(
        "kernel",
        m["kernels"],
        {"time_s": m["times"], "CxP_ops": m["ops"]},
        title=(
            f"Fig. 4: homomorphic convolution time (min of N) and C x P count vs kernel "
            f"size on a {size}x{size} map, scale={m['scale']} (paper: ops symmetric around "
            f"{size // 2}/{size // 2 + 1}, time skewed toward small kernels: 16.66x at 28x28)"
        ),
    ) + f"\nkernel 1 / kernel {size} time, equal op count: {m['times'][0] / m['times'][-1]:.2f}x"


def measure_fig5(rig: Rig, scale: BenchScale) -> dict:
    side, evaluator = rig.pure_he, rig.pure_he.evaluator
    sizes = [4, 8, 12] if scale.name != "paper" else [4, 8, 12, 16, 20, 24]
    reps = max(3, scale.repeats // 3)
    rows = {"EncryptSigmoid": [], "SGXSigmoid": [], "FakeSGXSigmoid": []}
    for size in sizes:
        ct = side.encrypt(side.rng.integers(-40, 40, size=(1, 1, size, size)))
        calls = {
            "EncryptSigmoid": lambda: evaluator.relinearize(evaluator.square(ct), side.relin),
            "SGXSigmoid": lambda: side.trusted.ecall("sigmoid", ct, 10.0, 1000),
            "FakeSGXSigmoid": lambda: side.fake.ecall("sigmoid", ct, 10.0, 1000),
        }
        for label, fn in calls.items():
            rows[label].append(best(fn, reps, side.clock))
    values = np.arange(-8, 8, dtype=np.int64).reshape(1, 1, 4, 4)
    got = side.encoder.decode(
        side.decryptor.decrypt(side.trusted.ecall("sigmoid", side.encrypt(values), 4.0, 1000))
    )
    expected = np.rint(Sigmoid.apply(values / 4.0) * 1000).astype(np.int64)
    return {
        "n": side.params.poly_degree,
        "sizes": sizes,
        **rows,
        "sigmoid_exact": bool(np.array_equal(got, expected)),
    }


def render_fig5(m: dict) -> str:
    he, sgx = m["EncryptSigmoid"], m["SGXSigmoid"]
    return format_series(
        "map_size",
        m["sizes"],
        {
            "EncryptSigmoid": he,
            "SGXSigmoid": sgx,
            "FakeSGXSigmoid": m["FakeSGXSigmoid"],
            "Encrypt/SGX": [a / b for a, b in zip(he, sgx)],
        },
        title=(
            f"Fig. 5: sigmoid computing time per feature map (/s, min of N), n={m['n']}, "
            f"scale={m['scale']} (paper ordering: Encrypt >> SGX > FakeSGX, gaps grow "
            f"with size, ~6.7x at its largest map)"
        ),
    ) + f"\nenclave sigmoid == rint(1000 * sigmoid(x / 4)) bit for bit: {m['sigmoid_exact']}"


def measure_fig6(rig: Rig, scale: BenchScale) -> dict:
    side = rig.hybrid
    size = 12 if scale.name != "paper" else 24
    windows = [w for w in (2, 3, 4, 6) if size % w == 0]
    ct = side.encrypt(side.rng.integers(0, 200, size=(1, 1, size, size)))
    reps = max(2, scale.repeats // 5)
    rows = {"SGXDiv": [], "FakeSGXDiv": [], "SGXPool": [], "FakeSGXPool": []}
    for w in windows:
        summed = he_scaled_mean_pool(side.evaluator, ct, w)
        sum_s = best(lambda: he_scaled_mean_pool(side.evaluator, ct, w), reps, side.clock)
        for prefix, handle in (("SGX", side.trusted), ("FakeSGX", side.fake)):
            rows[prefix + "Div"].append(
                sum_s + best(lambda: handle.ecall("divide", summed, w * w), reps, side.clock)
            )
            rows[prefix + "Pool"].append(
                best(lambda: handle.ecall("mean_pool", ct, w), reps, side.clock)
            )
    crossover = next(
        (w for w, div, pool in zip(windows, rows["SGXDiv"], rows["SGXPool"]) if div < pool),
        None,
    )
    policy = PoolingPlacementPolicy(crossover_window=crossover or 3)
    return {
        "map": size,
        "windows": windows,
        **rows,
        "SGXDiv_inputs": [(size // w) ** 2 for w in windows],
        "crossover": crossover,
        "policy_picks_div": policy.choose(windows[-1]) is PoolStrategy.SGX_DIV,
    }


def render_fig6(m: dict) -> str:
    series = ("SGXDiv", "FakeSGXDiv", "SGXPool", "FakeSGXPool", "SGXDiv_inputs")
    return format_series(
        "window",
        m["windows"],
        {key: m[key] for key in series},
        title=(
            f"Fig. 6: pool computing time per {m['map']}x{m['map']} feature map (/s, min "
            f"of N), scale={m['scale']} (paper: SGXDiv beats SGXPool once window >= 3; "
            f"SGXPool nearly flat)"
        ),
    ) + f"\nfirst window at which SGXDiv < SGXPool: {m['crossover']} (paper: 3)"


def measure_fig8(rig: Rig, scale: BenchScale) -> dict:
    images = rig.models.dataset.test_images[: scale.batch_size]

    def hybrid(mode: str) -> HybridPipeline:
        return HybridPipeline(rig.q_sigmoid, rig.hybrid.params, mode=mode, seed=31)

    results = {
        # One image shows the per-pixel control's blow-up; it is per image already.
        "EncryptSGX(single)": hybrid("per_pixel").infer(images[:1]),
        "Encrypted": CryptonetsPipeline(rig.q_square, rig.pure_he.params, seed=31).infer(images),
        "EncryptSGX": hybrid("batched").infer(images),
        "EncryptFakeSGX": hybrid("fake").infer(images),
    }
    for result in results.values():
        reconcile(result.trace)  # stages must cover the clock deltas, or the row fails
    plain = PlaintextPipeline(rig.q_sigmoid).infer(images).logits
    per_image = {name: res.total_elapsed_s / len(res.logits) for name, res in results.items()}
    return {
        "batch": len(images),
        "image_size": scale.image_size,
        "per_image": per_image,
        "rows": [
            [
                name,
                f"{per_image[name]:.3f}",
                f"{res.total_real_s:.3f}",
                f"{res.total_overhead_s:.3f}",
                str(res.enclave_crossings),
            ]
            for name, res in results.items()
        ],
        "saving": 1.0 - per_image["EncryptSGX"] / per_image["Encrypted"],
        "hybrid_exact": bool(np.array_equal(results["EncryptSGX"].logits, plain)),
        "fake_exact": bool(np.array_equal(results["EncryptFakeSGX"].logits, plain)),
        "trace": format_trace(results["EncryptSGX"].trace),
    }


def render_fig8(m: dict) -> str:
    per = m["per_image"]
    return format_table(
        ["scheme", "s/image (simulated)", "real s", "sgx overhead s", "crossings"],
        m["rows"],
        title=(
            f"Fig. 8: prediction time per image, batchSize={m['batch']}, "
            f"{m['image_size']}x{m['image_size']}, scale={m['scale']} (paper: single 603.2, "
            f"Encrypted 450.7, EncryptSGX 272.1, FakeSGX 240.4 s/image; EncryptSGX saves "
            f"39.6% vs Encrypted)"
        ),
    ) + (
        f"\nEncryptSGX saving vs Encrypted: {m['saving'] * 100:.1f}% (paper: 39.6%)"
        f"\nEncrypted / EncryptSGX: {per['Encrypted'] / per['EncryptSGX']:.2f} (paper: 1.66)"
        f"\nEncryptSGX(single) / Encrypted: "
        f"{per['EncryptSGX(single)'] / per['Encrypted']:.2f} (paper: 1.34)"
        f"\nhybrid == plaintext logits: {m['hybrid_exact']}\n\n{m['trace']}"
    )


# ----------------------------------------------------------------------
# Section VII-B accuracy and the five ablations
# ----------------------------------------------------------------------
def measure_accuracy(rig: Rig, scale: BenchScale) -> dict:
    data = rig.models.dataset
    count = max(4, scale.batch_size)
    images, labels = data.test_images[:count], data.test_labels[:count]
    results = {
        "plain_sigmoid": PlaintextPipeline(rig.q_sigmoid).infer(images),
        "plain_square": PlaintextPipeline(rig.q_square).infer(images),
        "hybrid": HybridPipeline(rig.q_sigmoid, rig.hybrid.params, seed=41).infer(images),
        "cryptonets": CryptonetsPipeline(rig.q_square, rig.pure_he.params, seed=41).infer(images),
    }
    reference = results["plain_sigmoid"].predictions
    return {
        "images": count,
        "rows": [
            [
                name,
                f"{accuracy_score(res.predictions, labels):.3f}",
                f"{agreement_rate(res.predictions, reference):.3f}",
            ]
            for name, res in results.items()
        ],
        "hybrid_exact": bool(
            np.array_equal(results["hybrid"].logits, results["plain_sigmoid"].logits)
        ),
        "cryptonets_exact": bool(
            np.array_equal(results["cryptonets"].logits, results["plain_square"].logits)
        ),
        "test_images": len(data.test_labels),
        "sigmoid_acc": accuracy(rig.models.sigmoid, data.test_float(), data.test_labels),
        "square_acc": accuracy(rig.models.square, data.test_float(), data.test_labels),
    }


def render_accuracy(m: dict) -> str:
    return format_table(
        ["pipeline", "accuracy", "agreement w/ plaintext"],
        m["rows"],
        title=(
            f"Section VII-B: accuracy consistency on {m['images']} held-out images, "
            f"scale={m['scale']} (paper: encrypted == plaintext, no accuracy reduction)"
        ),
    ) + (
        f"\nfloat models on the full test set ({m['test_images']} images): exact-sigmoid "
        f"{m['sigmoid_acc']:.3f}, square substitute {m['square_acc']:.3f}"
    )


def measure_simd(rig: Rig, scale: BenchScale) -> dict:
    n = scale.poly_degree
    # Value b rides coefficient b (a lane), and one scalar weight -- shared
    # across users, as every inference layer's is -- multiplies all n lanes.
    side = Side(rig.hybrid.params)
    evaluator = side.evaluator
    reps = max(3, scale.repeats // 2)
    values = side.rng.integers(-100, 100, size=n)
    weight = evaluator.transform_plain(side.encoder.encode(3))
    one_value = side.encrypt(7)
    packed = side.encryptor.encrypt(write_lanes(side.context, values))
    product = evaluator.multiply_plain(packed, weight)
    # check_noise: an exhausted budget is a typed NoiseBudgetExhausted (the
    # row fails), never a wrong product compared with ==.
    decoded = read_lanes(side.decryptor.decrypt(product, check_noise=True), n)
    return {
        "n": n,
        "q_bits": side.params.coeff_modulus.bit_length(),
        "t": side.params.plain_modulus,
        "single_s": best(lambda: evaluator.multiply_plain(one_value, weight), reps),
        "simd_s": best(lambda: evaluator.multiply_plain(packed, weight), reps),
        "budget_fresh": side.decryptor.invariant_noise_budget(packed),
        "budget_after": side.decryptor.invariant_noise_budget(product),
        "products_exact": bool(np.array_equal(decoded, values * 3)),
    }


def render_simd(m: dict) -> str:
    n, single_tp, simd_tp = m["n"], 1.0 / m["single_s"], m["n"] / m["simd_s"]
    return format_table(
        ["encoding", "values/ciphertext", "op time (ms)", "values/sec"],
        [
            ["one-per-ciphertext", "1", f"{m['single_s'] * 1e3:.3f}", f"{single_tp:,.0f}"],
            ["SIMD lane-packed", str(n), f"{m['simd_s'] * 1e3:.3f}", f"{simd_tp:,.0f}"],
        ],
        title=(
            f"Section VIII ablation: plaintext-multiply throughput (min of N), n={n}, "
            f"log2 q={m['q_bits']}, t={m['t']}, scale={m['scale']} "
            f"(paper prediction: SIMD buys up to {n}x)"
        ),
    ) + (
        f"\nSIMD throughput gain: {simd_tp / single_tp:,.0f}x (lanes: {n})"
        f"\nnoise budget: fresh {m['budget_fresh']:.1f} bits, after one multiply_plain of "
        f"{n} lanes by a scalar weight {m['budget_after']:.1f} bits"
        f"\nall {n} lane products decrypt exactly (check_noise=True): {m['products_exact']}"
    )


def measure_simd_pipeline(rig: Rig, scale: BenchScale) -> dict:
    # Images pack under the hybrid's own (power-of-two) plaintext modulus, so
    # both sides run on one parameter set.
    simd = SimdHybridPipeline(rig.q_sigmoid, rig.hybrid.params, seed=71)
    unpacked = HybridPipeline(rig.q_sigmoid, rig.hybrid.params, seed=71)
    images = rig.models.dataset.test_images
    batches = [1, 2, 4, 8]

    def per_image(pipeline, b: int) -> float:
        return best(lambda: pipeline.infer(images[:b]), 2, pipeline.platform.clock) / b

    plain = PlaintextPipeline(rig.q_sigmoid).infer(images[:4]).logits
    _, height, width = rig.q_sigmoid.input_shape
    return {
        "n": scale.poly_degree,
        "per_ciphertext": scale.poly_degree // (height * width),
        "batches": batches,
        "simd": [per_image(simd, b) for b in batches],
        "unpacked": [per_image(unpacked, b) for b in batches],
        "logits_exact": bool(np.array_equal(simd.infer(images[:4]).logits, plain)),
    }


def render_simd_pipeline(m: dict) -> str:
    return format_series(
        "batch",
        m["batches"],
        {"simd_s_per_image": m["simd"], "unpacked_s_per_image": m["unpacked"]},
        title=(
            f"Section VIII realized: per-image hybrid inference time (min of N), packed "
            f"vs one-value-per-ciphertext, n={m['n']} ({m['per_ciphertext']} images per "
            f"ciphertext), scale={m['scale']}"
        ),
    ) + (
        f"\nspeedup at batch {m['batches'][-1]}: {m['unpacked'][-1] / m['simd'][-1]:.1f}x"
        f"\npacked logits == plaintext logits: {m['logits_exact']}"
    )


def measure_refresh_batch(rig: Rig, scale: BenchScale) -> dict:
    batches = [1, 2, 4, 8, 16] if scale.name != "paper" else [1, 2, 4, 8, 16, 32, 64]
    reps = max(2, scale.repeats // 5)
    curves = {}
    models = {"paper_model": paper_cost_model(), "bare_metal": bare_metal_cost_model()}
    for label, model in models.items():
        side = Side(rig.hybrid.params, cost_model=model, seed=61)
        curves[label] = []
        for b in batches:
            squared = side.evaluator.square(side.encrypt(side.rng.integers(-50, 50, size=b)))
            curves[label].append(
                best(lambda: sgx_refresh(side.trusted, squared), reps, side.clock) / b
            )
    return {"n": rig.hybrid.params.poly_degree, "batches": batches, "curves": curves}


def render_refresh_batch(m: dict) -> str:
    return format_series(
        "batch",
        m["batches"],
        {label: [s * 1e3 for s in curve] for label, curve in m["curves"].items()},
        title=(
            f"Ablation: per-ciphertext SGX refresh cost (/ms, min of N) vs crossing batch "
            f"size, n={m['n']}, scale={m['scale']} "
            f"(generalizes Table V's 95.55 -> 23.429 ms amortization)"
        ),
    ) + "\namortization, batch 1 / largest batch: " + ", ".join(
        f"{label} {curve[0] / curve[-1]:.1f}x" for label, curve in m["curves"].items()
    )


class ModelServingEnclave(Enclave):
    """Section III-B's strawman: the entire model lives inside the enclave,
    and one inference touches every weight page once."""

    def __init__(self, model_bytes: int) -> None:
        super().__init__()
        self._model_bytes = model_bytes
        self._handle: int | None = None

    @ecall
    def infer(self) -> None:
        if self._handle is None:
            self._handle = self.epc_reserve(self._model_bytes)
        self.epc_touch(self._handle)


def measure_epc_paging(rig: Rig, scale: BenchScale) -> dict:
    epc_pages = 64
    cost_model = SgxCostModel(epc_bytes=epc_pages * PAGE_SIZE)
    model_pages = [16, 32, 64, 96, 128, 256]
    overhead, faults = [], []
    for pages in model_pages:
        platform = SgxPlatform(cost_model=cost_model)
        enclave = platform.load_enclave(ModelServingEnclave, pages * PAGE_SIZE)
        enclave.ecall("infer")  # cold start: everything faults once
        before = platform.clock.overhead_s, platform.epc.stats.faults
        enclave.ecall("infer")  # steady state
        overhead.append(platform.clock.overhead_s - before[0])
        faults.append(platform.epc.stats.faults - before[1])
    return {"epc": epc_pages, "pages": model_pages, "overhead_s": overhead, "faults": faults}


def render_epc_paging(m: dict) -> str:
    return format_series(
        "model_pages",
        m["pages"],
        {"steady_state_overhead_s": m["overhead_s"], "page_faults": m["faults"]},
        title=(
            f"Section III-B ablation: per-inference enclave overhead vs model size, "
            f"EPC={m['epc']} pages (models larger than the EPC thrash)"
        ),
    )


def deep_model(depth: int, seed: int):
    # Image sizes whose spatial dims divide cleanly through every (k=3,
    # pool 2) block: 22 -> 20/2=10 -> 8/2=4 -> 2/2=1.
    size = {1: 10, 2: 18, 3: 22}[depth]
    model = deep_cnn(image_size=size, block_channels=(2,) * depth, kernel_size=3,
                     rng=np.random.default_rng(seed))
    data = synthetic_mnist(train_size=150, test_size=30, seed=seed)
    lo = (28 - size) // 2

    def crop(images):
        return images[:, :, lo : lo + size, lo : lo + size]

    train(model, crop(data.train_images).astype(np.float64) / 255.0, data.train_labels,
          epochs=1, learning_rate=0.1, seed=seed)
    return QuantizedCNN.from_float(model, weight_bits=6, act_scale=63), crop(data.test_images)


DEPTH_COLUMNS = (
    "hybrid_time_s", "hybrid_wall_s", "crossings", "hybrid_log2q", "pure_he_log2q_needed",
    "budget_bits",
)


def measure_depth(rig: Rig, scale: BenchScale) -> dict:
    depths = [1, 2, 3]
    # Images are encrypted one per polynomial: depth 3's 22 x 22 needs n >= 484.
    n = max(scale.poly_degree, 512)
    series = {key: [] for key in DEPTH_COLUMNS}
    matches = []
    for depth in depths:
        quantized, images = deep_model(depth, seed=80 + depth)
        params = parameters_for_pipeline(quantized, n)
        pipeline = SimdHybridPipeline(quantized, params, seed=80 + depth)
        batch = images[:2]
        series["hybrid_time_s"].append(
            best(lambda: pipeline.infer(batch), 2, pipeline.platform.clock)
        )
        series["hybrid_wall_s"].append(best(lambda: pipeline.infer(batch), 2))
        result = pipeline.infer(batch)
        matches.append(np.array_equal(result.logits, quantized.forward_int(batch)))
        series["crossings"].append(result.enclave_crossings)
        series["hybrid_log2q"].append(params.coeff_modulus.bit_length())
        series["pure_he_log2q_needed"].append(
            pure_he_modulus_bits_for_depth(depth, params.plain_modulus.bit_length(), n)
        )
        series["budget_bits"].append(result.noise_budget_bits)
    return {"n": n, "depths": depths, "all_exact": all(matches), **series}


def render_depth(m: dict) -> str:
    return format_series(
        "depth",
        m["depths"],
        {key: m[key] for key in DEPTH_COLUMNS},
        title=(
            f"Depth ablation: multi-block hybrid inference under a fixed-size modulus, "
            f"n={m['n']}, scale={m['scale']} (hybrid_time_s: simulated seconds per "
            f"2-image batch; hybrid_wall_s: host wall seconds of the same; "
            f"pure_he_log2q_needed: analytic modulus requirement at that depth; "
            f"budget_bits: final noise budget)"
        ),
    ) + f"\nlogits == integer reference at every depth: {m['all_exact']}"


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def exact(statement: str, key: str) -> Claim:
    """An exactness claim whose measure already reduced it to one boolean."""
    return Claim(statement, lambda m: bool(m[key]), exact=True)


EXPERIMENTS = (
    Experiment("table1_keygen", measure_table1, render_table1, claims=(
        Claim(
            "key generation costs more inside SGX than outside",
            lambda m: exceeds(min(m["inside"]), min(m["outside"])),
        ),
    )),
    Experiment("table2_encryption", measure_table2, render_table2, claims=(
        Claim(
            "one ciphertext per pixel of the batch",
            lambda m: m["ciphertexts"] == m["batch"] * m["image_size"] ** 2,
            exact=True,
        ),
    )),
    Experiment("table3_decryption", measure_table3, render_table3, claims=(
        exact("decrypt + decode returns the encrypted logits", "round_trip"),
    )),
    Experiment("table4_sgx_crypto", measure_table4, render_table4, claims=(
        Claim(
            "Encoding+Encryption costs more inside SGX",
            lambda m: exceeds(m["enc_in"], m["enc_out"]),
        ),
        Claim(
            "Decoding+Decryption costs more inside SGX",
            lambda m: exceeds(m["dec_in"], m["dec_out"]),
        ),
        Claim(
            "decryption's relative SGX penalty exceeds encryption's (paper 14.3x vs 1.5x)",
            lambda m: exceeds(m["dec_in"] / m["dec_out"], m["enc_in"] / m["enc_out"]),
        ),
    )),
    Experiment("table5_relinearization", measure_table5, render_table5, claims=(
        Claim(
            "unbatched SGX refresh loses to relinearization",
            lambda m: exceeds(min(m["single"]), min(m["relin"])),
        ),
        Claim(
            "batching the crossing amortizes the SGX refresh (single > batched)",
            lambda m: exceeds(min(m["single"]), min(m["batched"])),
        ),
        Claim(
            "batched SGX refresh is competitive: s_batched < 2 * s_relin (paper: 0.36x)",
            lambda m: exceeds(2 * min(m["relin"]), min(m["batched"])),
            Deviates(
                "since PR 19 only the relinearize side lost its Python ints and since PR 21 "
                "it is the more transform-bound side; the refresh still pays a bigint CRT "
                "lift at this 150-bit q (ROADMAP item 11) plus the modelled crossing"
            ),
        ),
        Claim(
            "the SGX refresh restores more noise budget than relinearization leaves",
            lambda m: m["budget_refreshed"] > m["budget_relinearized"],
            exact=True,
        ),
    )),
    Experiment("fig3_weight_encoding", measure_fig3, render_fig3, claims=(
        Claim(
            "encoding time is linear in the weight count and independent of the kernel "
            "arrangement: time per weight stays within 2.5x over (a) K=11, (a) K=26 and (b) "
            "while the weight count spans more than 40x",
            lambda m: m["per_weight_spread"] < 2.5 and m["weight_span"] > 40,
        ),
    )),
    Experiment("fig4_conv_kernel", measure_fig4, render_fig4, claims=(
        Claim(
            "measured C x P counts equal (m-k+1)^2 k^2 at every kernel size, the same at "
            "kernel 1 and kernel m",
            lambda m: m["ops"] == [conv_ops(m["map"], k) for k in m["kernels"]]
            and m["ops"][0] == m["ops"][-1],
            exact=True,
        ),
        Claim(
            "at equal op count the small kernel is slower (kernel 1 > kernel m)",
            lambda m: exceeds(m["times"][0], m["times"][-1]),
        ),
    )),
    Experiment("fig5_sigmoid", measure_fig5, render_fig5, claims=(
        Claim(
            "EncryptSigmoid >> SGXSigmoid: at least 2x at every map size (paper: up to ~6.7x, "
            "the gap growing with the number of calculations)",
            lambda m: all(he > 2 * sgx for he, sgx in zip(m["EncryptSigmoid"], m["SGXSigmoid"])),
            Deviates(
                "parity at small (Encrypt / SGX between 0.89 and 1.28 across runs, 6.1x before "
                "PRs 19-22): square + relinearize are int64 RNS arithmetic over GEMM transforms "
                "now, while the enclave route pays a decrypt, a re-encrypt and the modelled EPC "
                "slowdown and crossing; at n = 256 (tiny) the enclave is the dearer of the two"
            ),
        ),
        Claim(
            "SGXSigmoid > FakeSGXSigmoid at every map size, the gap growing with the number of "
            "calculations",
            lambda m: all_exceed(m["SGXSigmoid"], m["FakeSGXSigmoid"])
            and exceeds(
                m["SGXSigmoid"][-1] - m["FakeSGXSigmoid"][-1],
                m["SGXSigmoid"][0] - m["FakeSGXSigmoid"][0],
            ),
        ),
        exact("the enclave evaluates the exact sigmoid, bit for bit", "sigmoid_exact"),
    )),
    Experiment("fig6_pooling", measure_fig6, render_fig6, claims=(
        Claim(
            "every SGX bar costs at least its FakeSGX control",
            lambda m: all_exceed(m["SGXPool"], m["FakeSGXPool"])
            and all_exceed(m["SGXDiv"], m["FakeSGXDiv"]),
        ),
        Claim(
            "SGXDiv beats SGXPool at the largest window",
            lambda m: exceeds(m["SGXPool"][-1], m["SGXDiv"][-1]),
        ),
        Claim(
            "SGXPool is nearly flat (< 1.5x over the sweep) while SGXDiv collapses (> 2x)",
            lambda m: m["SGXPool"][0] < 1.5 * m["SGXPool"][-1]
            and m["SGXDiv"][0] > 2 * m["SGXDiv"][-1],
        ),
        Claim(
            "the SGXDiv / SGXPool crossover sits at window 3",
            lambda m: m["crossover"] == 3,
            Deviates(
                "SGXDiv already wins at window 2: our EncryptedSum is one batched add per "
                "window tap, far cheaper relative to a crossing than the paper's"
            ),
        ),
        exact("PoolingPlacementPolicy picks SGX_DIV at the largest window", "policy_picks_div"),
    )),
    Experiment("fig8_end_to_end", measure_fig8, render_fig8, claims=(
        Claim(
            "Encrypted > EncryptSGX > EncryptFakeSGX",
            lambda m: exceeds(m["per_image"]["Encrypted"], m["per_image"]["EncryptSGX"])
            and exceeds(m["per_image"]["EncryptSGX"], m["per_image"]["EncryptFakeSGX"]),
        ),
        Claim(
            "the per-pixel control costs more than 2x the batched framework",
            lambda m: m["per_image"]["EncryptSGX(single)"] > 2 * m["per_image"]["EncryptSGX"],
        ),
        Claim(
            "EncryptSGX(single) > Encrypted",
            lambda m: exceeds(m["per_image"]["EncryptSGX(single)"], m["per_image"]["Encrypted"]),
        ),
        Claim(
            "EncryptSGX saves more than 20% of the pure-HE time",
            lambda m: m["saving"] > 0.2,
        ),
        Claim(
            "the saving is the paper's 39.6% to within 15 points",
            lambda m: abs(m["saving"] - 0.396) < 0.15,
            Deviates(
                "overshoots (92.6% after PR 19, ~89% since PR 21): the pure-HE side is bounded "
                "by transform count (ROADMAP item 12), the hybrid's conv and fc are single "
                "int64 matmuls and its one crossing is modelled"
            ),
        ),
        exact("EncryptSGX logits == plaintext logits", "hybrid_exact"),
        exact("EncryptFakeSGX logits == plaintext logits", "fake_exact"),
    )),
    Experiment("accuracy_consistency", measure_accuracy, render_accuracy, claims=(
        exact("hybrid logits == plaintext quantized logits", "hybrid_exact"),
        exact("CryptoNets logits == the square model's integer reference", "cryptonets_exact"),
    )),
    Experiment("ablation_simd", measure_simd, render_simd, claims=(
        Claim(
            "lane packing buys at least n/4 of plaintext-multiply throughput (paper: up to n)",
            lambda m: m["n"] * m["single_s"] / m["simd_s"] > m["n"] / 4,
        ),
        Claim(
            "the lane-wise products decrypt exactly, with noise budget to spare",
            lambda m: m["products_exact"] and m["budget_after"] > 0,
            exact=True,
        ),
    )),
    Experiment("ablation_simd_pipeline", measure_simd_pipeline, render_simd_pipeline, claims=(
        Claim(
            "packed per-image cost falls at least 2x from batch 1 to batch 8",
            lambda m: m["simd"][0] > 2 * m["simd"][-1],
        ),
        Claim(
            "at batch 8 packing beats one-value-per-ciphertext by at least 2x",
            lambda m: m["unpacked"][-1] > 2 * m["simd"][-1],
        ),
        exact("packed logits == plaintext logits", "logits_exact"),
    )),
    Experiment("ablation_refresh_batch", measure_refresh_batch, render_refresh_batch, claims=(
        Claim(
            "the largest batch refreshes cheaper per ciphertext than a singleton, under the "
            "paper-calibrated and the bare-metal cost model",
            lambda m: all(exceeds(curve[0], curve[-1]) for curve in m["curves"].values()),
        ),
    )),
    Experiment("ablation_epc_paging", measure_epc_paging, render_epc_paging, claims=(
        Claim(
            "a model that fits the EPC serves steady-state inferences with zero faults",
            lambda m: all(f == 0 for p, f in zip(m["pages"], m["faults"]) if p <= m["epc"]),
            exact=True,
        ),
        Claim(
            "past the EPC every inference re-faults the whole working set, at a cost",
            lambda m: all(
                f >= p and s > 0
                for p, f, s in zip(m["pages"], m["faults"], m["overhead_s"])
                if p > m["epc"]
            ),
            exact=True,
        ),
    )),
    Experiment("ablation_depth", measure_depth, render_depth, claims=(
        exact("deep hybrid logits == the integer reference at every depth", "all_exact"),
        Claim(
            "one enclave crossing per block",
            lambda m: m["crossings"] == m["depths"],
            exact=True,
        ),
        Claim(
            "the hybrid's modulus stays in one 30-bit band while the pure-HE requirement "
            "grows by more than 50 bits from depth 1 to 3",
            lambda m: max(m["hybrid_log2q"]) - min(m["hybrid_log2q"]) <= 30
            and m["pure_he_log2q_needed"][-1] - m["pure_he_log2q_needed"][0] > 50,
            exact=True,
        ),
        Claim(
            "the final noise budget stays above 5 bits at every depth",
            lambda m: all(b > 5 for b in m["budget_bits"]),
            exact=True,
        ),
    )),
)


@pytest.fixture(scope="module")
def rig() -> Rig:
    return Rig(current_scale())


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.name)
def test_paper_claims(experiment: Experiment, rig: Rig) -> None:
    report = evaluate(experiment, rig, rig.scale)
    if not report.error:
        publish(report)
    assert report.ok, f"{report.name}\n{report.claims()}\n{report.error}"
