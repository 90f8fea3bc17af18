"""Tests for the FR-FCFS controller and multi-channel DRAM system."""

import numpy as np
import pytest

from repro.dram import CommandCounts, DramRequest, DramSystem, dram_standard


@pytest.fixture
def ddr4():
    return dram_standard("DDR4-2400")


def seq_lines(n):
    return np.arange(n, dtype=np.int64)


def random_lines(n, span, seed=0):
    return np.random.default_rng(seed).integers(0, span, size=n)


class TestCommandCounts:
    def test_row_hit_rate(self):
        c = CommandCounts(n_act=25, n_pre=24, n_rd=70, n_wr=30)
        assert c.row_hit_rate() == pytest.approx(0.75)
        assert c.n_col == 100

    def test_accumulate(self):
        a = CommandCounts(n_act=1, n_pre=1, n_rd=2, n_wr=3)
        a += CommandCounts(n_act=1, n_pre=0, n_rd=1, n_wr=0)
        assert (a.n_act, a.n_rd, a.n_wr) == (2, 3, 3)


class TestDramSystem:
    def test_sequential_stream_mostly_row_hits(self, ddr4):
        sys = DramSystem(ddr4, n_channels=1)
        res = sys.run(seq_lines(2000), write_fraction=0.0)
        assert res.counts.row_hit_rate() > 0.85

    def test_random_stream_mostly_row_misses(self, ddr4):
        sys = DramSystem(ddr4, n_channels=1)
        res = sys.run(random_lines(2000, span=1 << 22), write_fraction=0.0)
        assert res.counts.row_hit_rate() < 0.3

    def test_sequential_bandwidth_near_peak(self, ddr4):
        sys = DramSystem(ddr4, n_channels=1)
        res = sys.run(seq_lines(4000), write_fraction=0.0)
        assert res.achieved_bw_gbs > 0.75 * ddr4.peak_bw_gbs

    def test_random_bandwidth_degraded(self, ddr4):
        sys = DramSystem(ddr4, n_channels=1)
        seq = sys.run(seq_lines(3000)).achieved_bw_gbs
        rnd = DramSystem(ddr4, n_channels=1).run(
            random_lines(3000, span=1 << 24)).achieved_bw_gbs
        assert rnd < seq

    def test_channels_scale_bandwidth(self, ddr4):
        bw1 = DramSystem(ddr4, 1).run(seq_lines(4000)).achieved_bw_gbs
        bw4 = DramSystem(ddr4, 4).run(seq_lines(4000)).achieved_bw_gbs
        assert bw4 > 2.5 * bw1

    def test_request_conservation(self, ddr4):
        sys = DramSystem(ddr4, n_channels=2)
        res = sys.run(seq_lines(1000), write_fraction=0.3)
        assert res.counts.n_col == 1000
        assert sum(c.counts.n_col for c in res.per_channel) == 1000

    def test_write_fraction(self, ddr4):
        res = DramSystem(ddr4, 1).run(seq_lines(2000), write_fraction=0.25)
        frac = res.counts.n_wr / res.counts.n_col
        assert frac == pytest.approx(0.25, abs=0.05)

    def test_offered_load_spacing(self, ddr4):
        # At low offered load, elapsed time is set by arrivals, not bank
        # throughput.
        sys = DramSystem(ddr4, 1)
        res = sys.run(seq_lines(500), arrival_bw_gbs=1.0)
        assert res.achieved_bw_gbs == pytest.approx(1.0, rel=0.2)

    def test_channel_interleaving(self, ddr4):
        sys = DramSystem(ddr4, 4)
        assert sys.map_channel(0) == 0
        assert sys.map_channel(5) == 1
        per_ch = [0, 0, 0, 0]
        for line in range(100):
            per_ch[sys.map_channel(line)] += 1
        assert per_ch == [25, 25, 25, 25]

    def test_fr_fcfs_prefers_row_hits(self, ddr4):
        # Interleave two rows: FR-FCFS should still keep hit rate above
        # strict FCFS (which would alternate and precharge every time).
        lines_a = seq_lines(64)
        lines_b = seq_lines(64) + (1 << 20)
        mixed = np.empty(128, dtype=np.int64)
        mixed[0::2] = lines_a
        mixed[1::2] = lines_b
        res = DramSystem(ddr4, 1, window=16).run(mixed, write_fraction=0.0)
        assert res.counts.row_hit_rate() > 0.5

    def test_hbm_outruns_ddr4_on_random(self):
        hbm = dram_standard("HBM2")
        ddr = dram_standard("DDR4-2400")
        rnd = random_lines(2000, span=1 << 24)
        bw_hbm = DramSystem(hbm, 1).run(rnd).achieved_bw_gbs
        bw_ddr = DramSystem(ddr, 1).run(rnd).achieved_bw_gbs
        assert bw_hbm > bw_ddr

    def test_request_validation(self):
        with pytest.raises(ValueError):
            DramRequest(line=-1)
        with pytest.raises(ValueError):
            DramSystem(dram_standard("DDR4-2400"), 0)


class TestRefresh:
    def test_refresh_counted_on_long_runs(self, ddr4):
        sys = DramSystem(ddr4, 1)
        res = sys.run(seq_lines(50_000), write_fraction=0.0)
        # ~175 us of traffic at 7.8 us tREFI: ~20+ refreshes.
        assert res.counts.n_ref > 10

    def test_short_runs_no_refresh(self, ddr4):
        res = DramSystem(ddr4, 1).run(seq_lines(100), write_fraction=0.0)
        assert res.counts.n_ref == 0

    def test_refresh_costs_bandwidth(self, ddr4):
        import dataclasses

        no_refresh = dataclasses.replace(ddr4, trefi=10**9)
        bw_with = DramSystem(ddr4, 1).run(seq_lines(50_000)).achieved_bw_gbs
        bw_without = DramSystem(no_refresh, 1).run(
            seq_lines(50_000)).achieved_bw_gbs
        # tRFC/tREFI ~ 4.5%: refresh steals a few percent of bandwidth.
        assert bw_with < bw_without
        assert bw_with > 0.90 * bw_without

    def test_row_hit_rate_stays_clamped(self, ddr4):
        res = DramSystem(ddr4, 1).run(
            random_lines(30_000, span=1 << 26), write_fraction=0.0)
        assert 0.0 <= res.counts.row_hit_rate() <= 1.0
