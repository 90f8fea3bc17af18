"""Tests for reuse-profile stream synthesis (the inverse problem)."""

import numpy as np
import pytest

from repro.trace import ReuseProfile, profile_stream, synthesize_calibrated
from repro.trace.synthesize import (
    _calibrate_sizes,
    _mixture_from_profile,
    synthesize_stream,
)


class TestSynthesizeStream:
    def test_single_component_distance(self):
        stream = synthesize_stream([(100, 1.0)], 5000, seed=0)
        p = profile_stream(stream, max_samples=5000)
        # Circular sweep over 100 lines: distance ~99.
        assert p.miss_ratio(50) > 0.9
        assert p.miss_ratio(200) < 0.05

    def test_cold_fraction_realized(self):
        stream = synthesize_stream([(10, 0.8)], 20_000, cold_fraction=0.2,
                                   seed=1)
        p = profile_stream(stream, max_samples=20_000)
        assert p.cold_fraction == pytest.approx(0.2, abs=0.03)

    def test_components_disjoint(self):
        stream = synthesize_stream([(10, 0.5), (100, 0.5)], 2000, seed=2)
        lines = set(stream // 64)
        # two regions plus maybe cold: ~110 distinct lines
        assert 100 <= len(lines) <= 120

    def test_validation(self):
        with pytest.raises(ValueError):
            synthesize_stream([], 100, cold_fraction=0.0)
        with pytest.raises(ValueError):
            synthesize_stream([(10, 1.0)], 0)


class TestMixtureExtraction:
    def test_components_recovered(self):
        p = ReuseProfile.from_components([(10, 0.6), (1000, 0.3),
                                          (100000, 0.1)])
        mix = _mixture_from_profile(p)
        assert len(mix) == 3
        dists = sorted(d for d, _ in mix)
        assert dists[0] == pytest.approx(10, rel=0.6)
        assert dists[1] == pytest.approx(1000, rel=0.6)

    def test_weights_preserved(self):
        p = ReuseProfile.from_components([(10, 0.7), (5000, 0.3)])
        mix = _mixture_from_profile(p)
        assert sum(w for _, w in mix) == pytest.approx(1.0, abs=0.01)

    def test_max_components_respected(self):
        comps = [(4.0 ** i * 10, 1.0) for i in range(10)]
        p = ReuseProfile.from_components(comps)
        assert len(_mixture_from_profile(p, max_components=4)) <= 4


class TestCalibration:
    def test_sizes_shrink_to_compensate_interleaving(self):
        # Two components: realized distances exceed sizes, so calibrated
        # sizes must be below targets.
        sizes = _calibrate_sizes([100, 2000], [0.5, 0.5], 0.0)
        assert sizes[0] < 100
        assert sizes[1] < 2000

    def test_single_component_unchanged(self):
        sizes = _calibrate_sizes([500], [1.0], 0.0)
        assert sizes[0] == pytest.approx(500, rel=0.05)


class TestSynthesizeCalibrated:
    @pytest.mark.parametrize("app,kernel", [
        ("hydro", "godunov"), ("spmz", "sp_solve"), ("lulesh", "stress"),
    ])
    def test_app_kernels_match_within_tolerance(self, app, kernel):
        from repro.apps import get_app

        prof = get_app(app).detailed_trace()[kernel].reuse
        rep = synthesize_calibrated(prof, n_accesses=50_000, seed=3)
        errors = [abs(rep.measured.miss_ratio(c) - rep.target.miss_ratio(c))
                  for c in rep.capacities]
        assert errors and max(errors) < 0.06

    def test_representable_horizon_reported(self):
        # A deep component with a short stream cannot be represented.
        p = ReuseProfile.from_components([(10, 0.5), (1e6, 0.5)])
        rep = synthesize_calibrated(p, n_accesses=10_000)
        assert rep.representable_lines <= 1e6
        # Checks only happen below the horizon.
        assert all(c <= rep.representable_lines for c in rep.capacities)

    def test_pure_cold_profile(self):
        p = ReuseProfile.from_components([(1.0, 0.0)], cold_fraction=1.0)
        rep = synthesize_calibrated(p, n_accesses=5000)
        assert rep.measured.cold_fraction > 0.9

    def test_stream_drives_exact_cache(self):
        """End-to-end: synthesized stream through the exact simulator
        reproduces the analytic model's L1 miss ratio."""
        from repro.apps import get_app
        from repro.config import cache_preset
        from repro.uarch import SetAssociativeCache

        prof = get_app("hydro").detailed_trace()["godunov"].reuse
        rep = synthesize_calibrated(prof, n_accesses=50_000, seed=5)
        l1 = cache_preset("64M:512K").l1
        sim = SetAssociativeCache(l1)
        sim.access_stream(rep.stream // 64)
        target = prof.miss_ratio(l1.n_lines, associativity=l1.associativity,
                                 n_sets=l1.n_sets)
        assert sim.stats.miss_ratio == pytest.approx(target, abs=0.05)
