"""Tests for timeline analysis (Figs. 3 and 4)."""

import pytest

from repro.analysis import (
    occupancy_stats,
    rank_activity_stats,
    render_core_timeline,
    render_rank_timeline,
)
from repro.apps import get_app
from repro.core import Musa
from repro.network import TimelineSegment


class TestOccupancyStats:
    def test_starved_phase_detected(self):
        """Specfem3D on 64 cores: the Fig. 3 signature."""
        musa = Musa(get_app("spec3d"))
        result = musa.burst_phase(musa.app.representative_phase(), 64,
                                  collect_spans=True)
        stats = occupancy_stats(result)
        assert stats.starved
        assert stats.busy_fraction < 0.6

    def test_healthy_phase_not_starved(self):
        musa = Musa(get_app("hydro"))
        result = musa.burst_phase(musa.app.representative_phase(), 32,
                                  collect_spans=True)
        stats = occupancy_stats(result)
        assert not stats.starved
        assert stats.busy_fraction > 0.7

    def test_active_core_count(self):
        musa = Musa(get_app("spec3d"))
        result = musa.burst_phase(musa.app.representative_phase(), 64,
                                  collect_spans=True)
        stats = occupancy_stats(result)
        # Fewer tasks than cores: many cores never execute anything.
        assert stats.active_cores < 64


class TestRankActivityStats:
    def test_lulesh_barrier_waste(self):
        """LULESH ranks spend big fractions in collectives (Fig. 4).

        Threshold calibrated with sender-link serialization charged on
        buffered halo sends (it shifts time from collective wait into
        p2p); the qualitative contrast with HYDRO below is what Fig. 4
        shows.
        """
        musa = Musa(get_app("lulesh"))
        res = musa.simulate_burst_full(n_cores=64, n_ranks=16,
                                       n_iterations=2)
        stats = rank_activity_stats(res)
        assert stats.mean_collective_fraction > 0.10

    def test_hydro_low_mpi_share(self):
        musa = Musa(get_app("hydro"))
        res = musa.simulate_burst_full(n_cores=64, n_ranks=16,
                                       n_iterations=2)
        stats = rank_activity_stats(res)
        assert stats.mean_collective_fraction < 0.10

    def test_fractions_bounded(self):
        musa = Musa(get_app("btmz"))
        res = musa.simulate_burst_full(n_cores=32, n_ranks=8, n_iterations=1)
        stats = rank_activity_stats(res)
        total = (res.compute_ns / stats.total_ns
                 + stats.collective_fraction + stats.p2p_fraction)
        assert (total <= 1.0 + 1e-9).all()


class TestRendering:
    def test_core_timeline_shape(self):
        musa = Musa(get_app("spec3d"))
        result = musa.burst_phase(musa.app.representative_phase(), 16,
                                  collect_spans=True)
        art = render_core_timeline(result.spans, 16, result.makespan_ns,
                                   width=40)
        lines = art.splitlines()
        assert len(lines) == 16
        assert all(len(l) == len(lines[0]) for l in lines)
        assert "#" in art and "." in art

    def test_core_timeline_row_cap(self):
        musa = Musa(get_app("spec3d"))
        result = musa.burst_phase(musa.app.representative_phase(), 64,
                                  collect_spans=True)
        art = render_core_timeline(result.spans, 64, result.makespan_ns,
                                   max_cores=8)
        assert "more cores" in art

    def test_rank_timeline_kinds(self):
        segs = (
            TimelineSegment(0, "compute", 0.0, 50.0),
            TimelineSegment(0, "collective", 50.0, 100.0),
            TimelineSegment(1, "compute", 0.0, 100.0),
        )
        art = render_rank_timeline(segs, 2, 100.0, width=20)
        assert "#" in art and "B" in art

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            render_rank_timeline((), 2, 0.0)
