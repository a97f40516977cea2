"""Tests for the simulated clock and the SGX cost model."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.sgx import SgxCostModel, bare_metal_cost_model, paper_cost_model
from repro.sgx.clock import SimClock
from repro.sgx.costmodel import PAGE_SIZE


class TestSimClock:
    def test_starts_at_zero(self):
        clock = SimClock()
        assert clock.now_s == 0.0

    def test_charge_accumulates_by_category(self):
        clock = SimClock()
        clock.charge(0.5, "a")
        clock.charge(0.25, "a")
        clock.charge(1.0, "b")
        assert clock.overhead_s == pytest.approx(1.75)
        assert clock.snapshot() == {"a": 0.75, "b": 1.0}

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimClock().charge(-1.0, "x")

    def test_negative_elapse_rejected(self):
        with pytest.raises(ValueError):
            SimClock().elapse_real(-1.0)

    def test_measure_real_times_block(self):
        clock = SimClock()
        with clock.measure_real():
            sum(range(10000))
        assert clock.real_s > 0
        assert clock.overhead_s == 0

    def test_measure_real_survives_exception(self):
        clock = SimClock()
        with pytest.raises(RuntimeError):
            with clock.measure_real():
                raise RuntimeError("boom")
        assert clock.real_s > 0

    def test_now_is_sum(self):
        clock = SimClock()
        clock.elapse_real(1.0)
        clock.charge(2.0, "x")
        assert clock.now_s == pytest.approx(3.0)

    def test_reset(self):
        clock = SimClock()
        clock.elapse_real(1.0)
        clock.charge(2.0, "x")
        clock.reset()
        assert clock.now_s == 0.0
        assert clock.snapshot() == {}


class TestCostModel:
    def test_paper_defaults_validate(self):
        model = paper_cost_model()
        assert model.epc_compute_factor == pytest.approx(2.45)

    def test_rejects_speedup_factor(self):
        with pytest.raises(ParameterError):
            SgxCostModel(epc_compute_factor=0.9)

    def test_rejects_negative_costs(self):
        with pytest.raises(ParameterError):
            SgxCostModel(ecall_overhead_s=-1.0)

    def test_rejects_tiny_epc(self):
        with pytest.raises(ParameterError):
            SgxCostModel(epc_bytes=100)

    def test_compute_overhead_scales(self):
        model = SgxCostModel(epc_compute_factor=3.0)
        assert model.compute_overhead_s(2.0) == pytest.approx(4.0)

    def test_pages_for_rounds_up(self):
        model = paper_cost_model()
        assert model.pages_for(1) == 1
        assert model.pages_for(PAGE_SIZE) == 1
        assert model.pages_for(PAGE_SIZE + 1) == 2
        assert model.pages_for(0) == 0

    def test_calibration_keygen_ratio(self):
        """The inside/outside keygen ratio of Table I is the compute factor."""
        model = paper_cost_model()
        outside = 20.201e-3
        inside = outside * model.epc_compute_factor + model.ecall_overhead_s
        assert inside / outside == pytest.approx(49.593e-3 / 20.201e-3, rel=0.05)

    def test_bare_metal_is_cheaper(self):
        paper, bare = paper_cost_model(), bare_metal_cost_model()
        assert bare.ecall_overhead_s < paper.ecall_overhead_s
        assert bare.epc_compute_factor < paper.epc_compute_factor
