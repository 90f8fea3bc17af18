"""Tests for the McPAT-substitute processor power model."""

import pytest

from repro.config import baseline_node
from repro.power import McPatModel
from repro.uarch import time_kernel


@pytest.fixture
def model():
    return McPatModel()


class TestLeakage:
    def test_core_leakage_grows_with_ooo_class(self, model, node64):
        leaks = [model.core_l1_leakage_w(node64.with_(core=c))
                 for c in ("lowend", "medium", "high", "aggressive")]
        assert leaks == sorted(leaks)

    def test_core_leakage_grows_with_vector_width(self, model, node64):
        leaks = [model.core_l1_leakage_w(node64.with_(vector_bits=w))
                 for w in (64, 128, 512, 2048)]
        assert leaks == sorted(leaks)

    def test_leakage_scales_with_voltage(self, model, node64):
        assert (model.core_l1_leakage_w(node64.with_(frequency_ghz=3.0))
                > model.core_l1_leakage_w(node64.with_(frequency_ghz=1.5)))

    def test_sram_leakage_proportional_to_capacity(self, model, node64):
        small = model.l2_l3_leakage_w(node64.with_(cache="32M:256K"))
        big = model.l2_l3_leakage_w(node64.with_(cache="96M:1M"))
        # 32M + 64*256K = 48 MB vs 96M + 64*1M = 160 MB.
        assert big / small == pytest.approx(160 / 48, rel=0.01)

    def test_idle_spin_power_positive_and_scales(self, model, node64):
        w2 = model.idle_spin_w(node64)
        w3 = model.idle_spin_w(node64.with_(frequency_ghz=3.0))
        assert 0 < w2 < w3


class TestDynamicEnergy:
    def test_energy_additive_in_events(self, model, node64):
        c1, l1 = model.dynamic_energy_j(node64, 1e9, 3e8, 3e8, 1e7, 1e6)
        c2, l2 = model.dynamic_energy_j(node64, 2e9, 6e8, 6e8, 2e7, 2e6)
        assert c2 == pytest.approx(2 * c1)
        assert l2 == pytest.approx(2 * l1)

    def test_ooo_class_raises_per_instruction_energy(self, model, node64):
        lo, _ = model.dynamic_energy_j(node64.with_(core="lowend"),
                                       1e9, 0, 0, 0, 0)
        hi, _ = model.dynamic_energy_j(node64.with_(core="aggressive"),
                                       1e9, 0, 0, 0, 0)
        assert hi > lo

    def test_wide_fpu_costs_more_per_flop(self, model, node64):
        narrow, _ = model.dynamic_energy_j(node64.with_(vector_bits=128),
                                           1e9, 5e8, 0, 0, 0)
        wide, _ = model.dynamic_energy_j(node64.with_(vector_bits=512),
                                         1e9, 5e8, 0, 0, 0)
        assert wide > narrow

    def test_64bit_fpu_saves_flop_energy(self, model, node64):
        assert model.flop_energy_factor(node64.with_(vector_bits=64)) < 1.0

    def test_rejects_negative_counts(self, model, node64):
        with pytest.raises(ValueError):
            model.dynamic_energy_j(node64, -1, 0, 0, 0, 0)


class TestBusyCorePower:
    def test_magnitude_plausible(self, model, node64, simple_kernel):
        t = time_kernel(simple_kernel, node64)
        core_j, _ = model.dynamic_energy_j(
            node64, t.instructions, t.scalar_flops, t.l1_accesses,
            t.l2_accesses, t.l3_accesses,
            effective_lanes=t.vectorization.effective_lanes)
        seconds = t.cycles / (node64.frequency_ghz * 1e9)
        # A 22nm server core at 2 GHz: single-digit watts.
        assert 0.3 < core_j / seconds < 10.0
        assert 0.1 < model.core_l1_leakage_w(node64) < 2.0
