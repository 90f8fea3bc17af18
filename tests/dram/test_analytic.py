"""Tests for the closed-form DRAM envelopes, validated against the
event-level controller."""

import numpy as np
import pytest

from repro.dram import (
    DramSystem,
    dram_standard,
    efficiency,
    sustained_bandwidth_gbs,
)
from repro.uarch import dram_efficiency


class TestEfficiency:
    def test_monotone_in_row_hit(self):
        t = dram_standard("DDR4-2400")
        effs = [efficiency(t, r) for r in np.linspace(0, 1, 5)]
        assert effs == sorted(effs)

    def test_streaming_near_one(self):
        t = dram_standard("DDR4-2400")
        assert efficiency(t, 1.0) == pytest.approx(1.0)

    def test_matches_event_level_streaming(self):
        t = dram_standard("DDR4-2400")
        res = DramSystem(t, 1).run(np.arange(4000), write_fraction=0.0)
        model = efficiency(t, res.counts.row_hit_rate())
        measured = res.achieved_bw_gbs / t.peak_bw_gbs
        assert model == pytest.approx(measured, abs=0.2)

    def test_matches_event_level_random(self):
        t = dram_standard("DDR4-2400")
        rnd = np.random.default_rng(0).integers(0, 1 << 24, size=3000)
        res = DramSystem(t, 1).run(rnd, write_fraction=0.0)
        model = efficiency(t, res.counts.row_hit_rate())
        measured = res.achieved_bw_gbs / t.peak_bw_gbs
        assert model == pytest.approx(measured, abs=0.25)

    def test_node_model_curve_is_conservative(self):
        """The sweep's linear derating must lie at or below the timing-
        derived envelope (it folds in real-system overheads)."""
        t = dram_standard("DDR4-2400")
        for r in (0.0, 0.3, 0.6, 0.9):
            assert dram_efficiency(r) <= efficiency(t, r) + 0.05


class TestSustainedBandwidth:
    def test_scales_with_channels(self):
        t = dram_standard("DDR4-2400")
        one = sustained_bandwidth_gbs(t, 1, 0.6)
        eight = sustained_bandwidth_gbs(t, 8, 0.6)
        assert eight == pytest.approx(8 * one)

    def test_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            sustained_bandwidth_gbs(dram_standard("DDR4-2400"), 0, 0.5)
