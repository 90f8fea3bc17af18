"""Tests for the figure-component power breakdown."""

import pytest

from repro.power import PowerBreakdown


class TestPowerBreakdown:
    def test_total(self):
        p = PowerBreakdown(core_l1_w=100.0, l2_l3_w=20.0, memory_w=15.0)
        assert p.total_w == pytest.approx(135.0)

    def test_hbm_total_is_none(self):
        p = PowerBreakdown(core_l1_w=100.0, l2_l3_w=20.0, memory_w=None)
        assert p.total_w is None
        assert p.known_total_w == pytest.approx(120.0)

    def test_energy(self):
        p = PowerBreakdown(core_l1_w=100.0, l2_l3_w=20.0, memory_w=15.0)
        assert p.energy_j(10.0) == pytest.approx(1350.0)

    def test_energy_none_for_hbm(self):
        p = PowerBreakdown(core_l1_w=100.0, l2_l3_w=20.0, memory_w=None)
        assert p.energy_j(10.0) is None

    def test_addition(self):
        a = PowerBreakdown(10.0, 2.0, 3.0)
        b = PowerBreakdown(5.0, 1.0, 1.0)
        c = a + b
        assert c.core_l1_w == 15.0
        assert c.memory_w == 4.0

    def test_addition_propagates_none(self):
        a = PowerBreakdown(10.0, 2.0, None)
        b = PowerBreakdown(5.0, 1.0, 1.0)
        assert (a + b).memory_w is None

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PowerBreakdown(-1.0, 0.0, 0.0)

    def test_rejects_negative_runtime(self):
        with pytest.raises(ValueError):
            PowerBreakdown(1.0, 1.0, 1.0).energy_j(-1.0)
