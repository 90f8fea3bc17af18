"""Tests for the SIMD fusion model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch import fusion_factor, vectorize


class TestFusionFactor:
    def test_scalar_width_no_fusion(self):
        assert fusion_factor(1000, 1) == 1.0

    def test_long_loop_approaches_lanes(self):
        assert fusion_factor(4096, 8) == pytest.approx(8.0, rel=0.01)

    def test_short_loop_gated(self):
        # Trip count 4 cannot fuse at 8 lanes (needs >= 16 repeats) but
        # fuses at 2 lanes (needs >= 4): wide units fall back to narrow.
        assert fusion_factor(4, 8) == pytest.approx(2.0)

    def test_trip_below_gate_no_fusion(self):
        assert fusion_factor(3, 8) == 1.0
        assert fusion_factor(1, 2) == 1.0

    def test_monotone_in_width(self):
        for trip in (3, 4, 7, 16, 100, 1000):
            factors = [fusion_factor(trip, l) for l in (1, 2, 4, 8, 16, 32)]
            assert factors == sorted(factors), (trip, factors)

    def test_remainder_iterations_run_scalar(self):
        # trip 10, lanes 4: 2 full groups + 2 scalar = 4 instrs for 10.
        assert fusion_factor(10, 4) == pytest.approx(10 / 4)

    @given(st.floats(min_value=1, max_value=1e5),
           st.sampled_from([1, 2, 4, 8, 16, 32]))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_lanes(self, trip, lanes):
        f = fusion_factor(trip, lanes)
        assert 1.0 <= f <= lanes + 1e-9

    def test_rejects_bad_trip(self):
        with pytest.raises(ValueError):
            fusion_factor(0.5, 4)


class TestVectorize:
    def test_64bit_means_scalar(self, simple_kernel):
        v = vectorize(simple_kernel, 64)
        assert v.instr_scale == pytest.approx(1.0)
        assert v.effective_lanes == 1.0

    def test_wider_means_fewer_instructions(self, simple_kernel):
        scales = [vectorize(simple_kernel, w).instr_scale
                  for w in (128, 256, 512, 1024)]
        assert scales == sorted(scales, reverse=True)

    def test_nonvectorizable_work_untouched(self, simple_kernel):
        v = vectorize(simple_kernel, 512)
        m = simple_kernel.mix
        # int/branch/other fraction is preserved 1:1.
        preserved = m.int_alu + m.branch + m.other
        assert v.instr_scale >= preserved

    def test_full_vectorizable_kernel_scales_by_lanes(self, simple_reuse):
        from repro.trace import InstructionMix, KernelSignature

        sig = KernelSignature(
            name="pure", instr_per_unit=100.0,
            mix=InstructionMix(fp=0.6, int_alu=0.0, load=0.3, store=0.1,
                               branch=0.0),
            ilp=4.0, vec_fraction=1.0, trip_count=100_000, mlp=4.0,
            reuse=simple_reuse,
        )
        v = vectorize(sig, 512)
        assert v.instr_scale == pytest.approx(1 / 8, rel=0.01)

    def test_rejects_sub_lane_width(self, simple_kernel):
        with pytest.raises(ValueError):
            vectorize(simple_kernel, 32)
