"""Tests for memory subsystem configurations."""

import pytest

from repro.config import MEMORY_LABELS, MemoryConfig, memory_preset


class TestPresets:
    def test_base_space_has_two_points(self):
        assert MEMORY_LABELS == ("4chDDR4", "8chDDR4")

    def test_channel_counts(self):
        assert memory_preset("4chDDR4").n_channels == 4
        assert memory_preset("8chDDR4").n_channels == 8
        assert memory_preset("16chDDR4").n_channels == 16
        assert memory_preset("16chHBM").n_channels == 16

    def test_ddr4_2333_channel_bandwidth(self):
        # 2333 MT/s x 8 B = 18.664 GB/s
        assert memory_preset("4chDDR4").channel_bw_gbs == pytest.approx(
            18.664, rel=1e-3)

    def test_aggregate_bandwidth_doubles(self):
        bw4 = memory_preset("4chDDR4").peak_bw_gbs
        bw8 = memory_preset("8chDDR4").peak_bw_gbs
        assert bw8 == pytest.approx(2 * bw4)

    def test_dimm_population_matches_paper(self):
        # Sec. IV-C: 4ch -> 8 DIMMs, 8ch -> 16 DIMMs.
        m4, m8 = memory_preset("4chDDR4"), memory_preset("8chDDR4")
        for m, dimms in ((m4, 8), (m8, 16)):
            assert m.total_dimms == dimms

    def test_hbm_has_no_energy_data(self):
        assert not memory_preset("16chHBM").energy_data_available
        assert memory_preset("16chDDR4").energy_data_available

    def test_hbm_latency_lower_than_ddr4(self):
        assert (memory_preset("16chHBM").idle_latency_ns
                < memory_preset("4chDDR4").idle_latency_ns)

    def test_hbm_bandwidth_exceeds_16ch_ddr4(self):
        assert (memory_preset("16chHBM").peak_bw_gbs
                > memory_preset("16chDDR4").peak_bw_gbs)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            memory_preset("2chDDR3")


class TestValidation:
    def test_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            MemoryConfig(label="x", n_channels=0,
                         channel_bw_gbs=10, idle_latency_ns=60,
                         dimms_per_channel=2)

    def test_rejects_nonpositive_latency(self):
        with pytest.raises(ValueError):
            MemoryConfig(label="x", n_channels=4,
                         channel_bw_gbs=10, idle_latency_ns=0,
                         dimms_per_channel=2)

    def test_rejects_negative_dimms(self):
        with pytest.raises(ValueError):
            MemoryConfig(label="x", n_channels=4,
                         channel_bw_gbs=10, idle_latency_ns=60,
                         dimms_per_channel=-1)
