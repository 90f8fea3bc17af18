"""Tests for the application-model base machinery."""

import numpy as np
import pytest

from repro.apps import APP_NAMES, all_apps, get_app, grid_neighbors, rank_grid_dims
from repro.trace.burst import PHASE


class TestRankGrid:
    def test_256_is_8x8x4(self):
        assert rank_grid_dims(256) == (8, 8, 4)

    def test_cube(self):
        assert rank_grid_dims(64) == (4, 4, 4)

    def test_prime_degenerates(self):
        assert rank_grid_dims(7) == (7, 1, 1)

    def test_product_invariant(self):
        for n in (1, 2, 8, 16, 60, 128, 256, 512):
            dims = rank_grid_dims(n)
            assert dims[0] * dims[1] * dims[2] == n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rank_grid_dims(0)


class TestGridNeighbors:
    def test_interior_rank_has_six(self):
        assert len(grid_neighbors(0, (8, 8, 4))) == 6

    def test_neighbors_symmetric(self):
        dims = (4, 4, 2)
        for r in range(32):
            for nb in grid_neighbors(r, dims):
                assert r in grid_neighbors(nb, dims)

    def test_small_axis_dedup(self):
        # 2x2x2: +1 and -1 coincide along every axis -> 3 neighbours.
        assert len(grid_neighbors(0, (2, 2, 2))) == 3

    def test_axis_of_one_skipped(self):
        assert len(grid_neighbors(0, (4, 1, 1))) == 2

    def test_out_of_range_rank(self):
        with pytest.raises(ValueError):
            grid_neighbors(100, (2, 2, 2))


class TestRegistry:
    def test_five_apps_in_paper_order(self):
        assert APP_NAMES == ("hydro", "spmz", "btmz", "spec3d", "lulesh")
        assert [a.name for a in all_apps()] == list(APP_NAMES)

    def test_unknown_app(self):
        with pytest.raises(KeyError):
            get_app("miniFE")


class TestAppModelInterface:
    @pytest.mark.parametrize("name", APP_NAMES)
    def test_detailed_trace_covers_burst_kernels(self, name):
        app = get_app(name)
        detailed = app.detailed_trace()
        trace = app.burst_trace(n_ranks=4, n_iterations=1)
        assert all(k in detailed for k in trace.kernel_names())

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_rank_scales_normalized(self, name):
        app = get_app(name)
        scales = app.rank_scales(256)
        assert scales.mean() == pytest.approx(1.0)
        assert scales.max() / scales.mean() - 1 == pytest.approx(
            app.rank_imbalance, abs=0.1)

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_rank_scales_deterministic(self, name):
        app = get_app(name)
        np.testing.assert_array_equal(app.rank_scales(64),
                                      get_app(name).rank_scales(64))

    def test_single_rank_no_imbalance(self):
        assert get_app("lulesh").rank_scales(1)[0] == 1.0

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_burst_trace_structure(self, name):
        app = get_app(name)
        t = app.burst_trace(n_ranks=8, n_iterations=2)
        assert t.n_ranks == 8
        n_phases = int((t.columns.kind == PHASE).sum()) * t.repeats
        n_app_phases = len(app.iteration_phases())
        assert n_phases == 8 * 2 * n_app_phases

    @pytest.mark.parametrize("bad", [0, -1])
    def test_burst_trace_rejects_nonpositive_iterations(self, bad):
        with pytest.raises(ValueError, match="n_iterations"):
            get_app("spmz").burst_trace(n_ranks=4, n_iterations=bad)

    def test_burst_trace_none_means_default_iterations(self):
        app = get_app("spmz")
        t = app.burst_trace(n_ranks=4)
        assert t.n_iterations == t.repeats == app.default_iterations

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_representative_phase_is_heaviest(self, name):
        app = get_app(name)
        rep = app.representative_phase()
        assert rep.total_task_ns == max(
            p.total_task_ns for p in app.iteration_phases())

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_work_per_iteration_positive(self, name):
        t = get_app(name).burst_trace(n_ranks=2, n_iterations=1)
        c = t.columns
        rows = c.kind == PHASE
        work = [t.phases[i].total_task_ns + t.phases[i].serial_ns
                for i in c.phase[rows]]
        per_rank = np.bincount(c.event_ranks()[rows], weights=work,
                               minlength=t.n_ranks)
        assert (per_rank > 0).all()
