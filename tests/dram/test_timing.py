"""Tests for DRAM timing parameter sets."""

import pytest

from repro.dram import DRAM_STANDARDS, DramTiming, dram_standard


class TestStandards:
    def test_presets_exist(self):
        assert "DDR4-2400" in DRAM_STANDARDS
        assert "HBM2" in DRAM_STANDARDS

    def test_ddr4_peak_bandwidth(self):
        t = dram_standard("DDR4-2400")
        # 2400 MT/s x 8 B = 19.2 GB/s
        assert t.peak_bw_gbs == pytest.approx(19.2, rel=0.01)

    def test_hbm_wider_bus(self):
        hbm = dram_standard("HBM2")
        ddr = dram_standard("DDR4-2400")
        assert hbm.bus_bytes_per_cycle > ddr.bus_bytes_per_cycle
        assert hbm.n_banks > ddr.n_banks

    def test_burst_moves_one_line(self):
        for t in DRAM_STANDARDS.values():
            assert t.burst_cycles * t.bus_bytes_per_cycle == 64

    def test_row_cycle_time(self):
        t = dram_standard("DDR4-2400")
        assert t.trc == t.tras + t.trp

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            dram_standard("DDR5-6400")

    def test_validation(self):
        with pytest.raises(ValueError):
            DramTiming(name="bad", tck_ns=0.0, cl=16, trcd=16, trp=16,
                       tras=39, burst_cycles=4, n_banks=16, row_bytes=8192,
                       bus_bytes_per_cycle=16)
