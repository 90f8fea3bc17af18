"""Tests for the analytic cache-hierarchy model."""

import pytest

from repro.config import cache_preset
from repro.trace import InstructionMix, KernelSignature, ReuseProfile
from repro.uarch import hierarchy_miss_profile


def _sig(components, cold=0.0):
    return KernelSignature(
        name="k", instr_per_unit=1000.0,
        mix=InstructionMix(fp=0.3, int_alu=0.2, load=0.25, store=0.1,
                           branch=0.1, other=0.05),
        ilp=2.0, vec_fraction=0.5, trip_count=64, mlp=4.0,
        reuse=ReuseProfile.from_components(components, cold_fraction=cold),
    )


class TestMissProfile:
    def test_monotone_levels(self):
        sig = _sig([(100, 0.5), (5000, 0.3), (1e6, 0.2)])
        mp = hierarchy_miss_profile(sig, cache_preset("64M:512K"))
        assert mp.miss_l1 >= mp.miss_l2 >= mp.miss_l3

    def test_l1_resident_kernel(self):
        sig = _sig([(50, 1.0)])
        mp = hierarchy_miss_profile(sig, cache_preset("64M:512K"))
        assert mp.miss_l1 < 0.05

    def test_l2_resident_kernel(self):
        # Distance 2000 lines = 128 KB: misses 32 KB L1, fits 512 KB L2.
        sig = _sig([(2000, 1.0)])
        mp = hierarchy_miss_profile(sig, cache_preset("64M:512K"))
        assert mp.miss_l1 > 0.9
        assert mp.miss_l2 < 0.1

    def test_dram_kernel(self):
        sig = _sig([(5e6, 1.0)])
        mp = hierarchy_miss_profile(sig, cache_preset("96M:1M"))
        assert mp.miss_l3 > 0.9

    def test_cold_fraction_reaches_dram(self):
        sig = _sig([(10, 0.9)], cold=0.1)
        mp = hierarchy_miss_profile(sig, cache_preset("64M:512K"))
        assert mp.miss_l3 == pytest.approx(0.1, abs=0.02)

    def test_l3_sharing_hurts(self):
        # 1.5 MB working set: fits a private-ish L3 slice but not 1/64th.
        sig = _sig([(24_000, 1.0)])
        h = cache_preset("64M:512K")
        alone = hierarchy_miss_profile(sig, h, l3_share_cores=1)
        crowded = hierarchy_miss_profile(sig, h, l3_share_cores=64)
        assert alone.miss_l3 < 0.1
        assert crowded.miss_l3 > 0.8

    def test_bigger_l2_reduces_misses(self):
        # 350 KB slab: misses a 256 KB L2, fits 512 KB (HYDRO's knee).
        sig = _sig([(5500, 1.0)])
        small = hierarchy_miss_profile(sig, cache_preset("32M:256K"))
        big = hierarchy_miss_profile(sig, cache_preset("64M:512K"))
        assert small.miss_l2 > 0.6
        assert big.miss_l2 < 0.25

    def test_rejects_bad_args(self):
        sig = _sig([(10, 1.0)])
        with pytest.raises(ValueError):
            hierarchy_miss_profile(sig, cache_preset("64M:512K"),
                                   l3_share_cores=0)
