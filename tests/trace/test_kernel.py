"""Tests for kernel signatures and reuse profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import InstructionMix, KernelSignature, ReuseProfile


class TestInstructionMix:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            InstructionMix(fp=0.5, int_alu=0.5, load=0.5, store=0.0,
                           branch=0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InstructionMix(fp=1.2, int_alu=-0.2, load=0.0, store=0.0,
                           branch=0.0)

    def test_mem_fraction(self):
        m = InstructionMix(fp=0.3, int_alu=0.2, load=0.25, store=0.15,
                           branch=0.1)
        assert m.mem == pytest.approx(0.40)


class TestReuseProfileConstruction:
    def test_from_components_normalizes(self):
        p = ReuseProfile.from_components([(10, 2.0), (1000, 1.0)],
                                         cold_fraction=0.1)
        assert p.weights.sum() + p.cold_fraction == pytest.approx(1.0)

    def test_from_distances(self):
        d = np.array([1, 2, 4, 8, 1000, 1000, 50000])
        p = ReuseProfile.from_distances(d, n_cold=3)
        assert p.cold_fraction == pytest.approx(0.3)
        assert p.weights.sum() == pytest.approx(0.7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ReuseProfile.from_components([])

    def test_all_cold(self):
        p = ReuseProfile.from_distances(np.array([]), n_cold=5)
        assert p.cold_fraction == 1.0
        assert p.miss_ratio(1e9) == pytest.approx(1.0)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            ReuseProfile([0.0, 1.0, 1.0], [0.5, 0.5])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ReuseProfile([0.0, 1.0, 2.0], [0.5, -0.1])


class TestMissRatio:
    def test_tiny_cache_misses_everything_beyond_line_reuse(self):
        p = ReuseProfile.from_components([(1000, 1.0)])
        assert p.miss_ratio(10) == pytest.approx(1.0, abs=0.01)

    def test_huge_cache_only_cold_misses(self):
        p = ReuseProfile.from_components([(1000, 1.0)], cold_fraction=0.05)
        assert p.miss_ratio(1e9) == pytest.approx(0.05, abs=1e-6)

    def test_monotone_in_capacity(self):
        p = ReuseProfile.from_components(
            [(10, 0.5), (1000, 0.3), (100000, 0.2)])
        caps = [16, 128, 1024, 8192, 65536, 1 << 20]
        ratios = [p.miss_ratio(c) for c in caps]
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_set_associative_close_to_full_for_high_assoc(self):
        p = ReuseProfile.from_components([(100, 0.7), (5000, 0.3)])
        full = p.miss_ratio(8192)
        sa = p.miss_ratio(8192, associativity=16, n_sets=512)
        assert sa == pytest.approx(full, abs=0.08)

    def test_set_associative_worse_than_full(self):
        # Low associativity causes conflict misses the full-assoc model
        # doesn't have.
        p = ReuseProfile.from_components([(3000, 1.0)])
        full = p.miss_ratio(8192)
        sa = p.miss_ratio(8192, associativity=2, n_sets=4096)
        assert sa >= full - 1e-9

    @given(st.floats(min_value=1.0, max_value=1e7))
    @settings(max_examples=30, deadline=None)
    def test_ratio_always_in_unit_interval(self, capacity):
        p = ReuseProfile.from_components(
            [(50, 0.4), (2000, 0.4), (1e6, 0.2)], cold_fraction=0.01)
        r = p.miss_ratio(capacity)
        assert 0.0 <= r <= 1.0

    def test_scaled_shifts_knee(self):
        p = ReuseProfile.from_components([(1000, 1.0)])
        p2 = ReuseProfile.from_components([(10_000, 1.0)])
        assert p.miss_ratio(2000) < 0.1
        assert p2.miss_ratio(2000) > 0.9

    def test_mean_distance(self):
        p = ReuseProfile.from_components([(1000, 1.0)])
        assert 500 < p.mean_distance() < 2000


class TestKernelSignature:
    def _mix(self):
        return InstructionMix(fp=0.3, int_alu=0.2, load=0.25, store=0.1,
                              branch=0.1, other=0.05)

    def _sig(self, **kw):
        defaults = dict(
            name="k", instr_per_unit=1000.0, mix=self._mix(), ilp=3.0,
            vec_fraction=0.5, trip_count=64, mlp=4.0,
            reuse=ReuseProfile.from_components([(10, 1.0)]),
        )
        defaults.update(kw)
        return KernelSignature(**defaults)

    def test_instructions(self):
        assert self._sig().instructions(3.0) == pytest.approx(3000.0)

    def test_instructions_rejects_nonpositive_work(self):
        with pytest.raises(ValueError):
            self._sig().instructions(0.0)

    @pytest.mark.parametrize("field,value", [
        ("instr_per_unit", 0.0), ("ilp", 0.0), ("vec_fraction", 1.5),
        ("trip_count", 0.5), ("mlp", 0.0),
        ("row_hit_rate", 1.5),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            self._sig(**{field: value})
