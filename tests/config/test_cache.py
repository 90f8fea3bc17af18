"""Tests for cache hierarchy configurations (Table I)."""

import pytest

from repro.config import (
    CACHE_LABELS,
    KIB,
    LINE_BYTES,
    MIB,
    CacheHierarchy,
    CacheLevelConfig,
    cache_preset,
)
from repro.uarch import hierarchy_miss_profile

from ..uarch.test_hierarchy import _sig


class TestPresets:
    def test_three_points(self):
        assert CACHE_LABELS == ("32M:256K", "64M:512K", "96M:1M")

    @pytest.mark.parametrize("label,l3_mb,l2_kb,l3_lat,l2_lat,l2_assoc", [
        ("32M:256K", 32, 256, 68, 9, 8),
        ("64M:512K", 64, 512, 70, 11, 16),
        ("96M:1M", 96, 1024, 72, 13, 16),
    ])
    def test_table1_values(self, label, l3_mb, l2_kb, l3_lat, l2_lat, l2_assoc):
        h = cache_preset(label)
        assert h.l3.size_bytes == l3_mb * MIB
        assert h.l2.size_bytes == l2_kb * KIB
        assert h.l3.latency_cycles == l3_lat
        assert h.l2.latency_cycles == l2_lat
        assert h.l2.associativity == l2_assoc
        assert h.l3.associativity == 16

    def test_l1_fixed_32k(self):
        for label in CACHE_LABELS:
            assert cache_preset(label).l1.size_bytes == 32 * KIB

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            cache_preset("128M:2M")


class TestGeometry:
    def test_line_count(self):
        l1 = cache_preset("64M:512K").l1
        assert l1.n_lines == 32 * KIB // LINE_BYTES == 512

    def test_sets_times_ways_is_lines(self):
        for label in CACHE_LABELS:
            h = cache_preset(label)
            for lvl in (h.l1, h.l2, h.l3):
                assert lvl.n_sets * lvl.associativity == lvl.n_lines

    def test_l3_fair_share(self):
        # 100K lines (6.4 MB) fit the whole 64 MB L3, not a 1 MB slice
        # of it: the miss model gives each of 64 busy cores L3 / 64.
        sig = _sig([(100_000, 1.0)])
        h = cache_preset("64M:512K")
        alone = hierarchy_miss_profile(sig, h, l3_share_cores=1)
        shared = hierarchy_miss_profile(sig, h, l3_share_cores=64)
        assert alone.miss_l3 < 0.1
        assert shared.miss_l3 > 0.9

    def test_share_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            hierarchy_miss_profile(_sig([(10, 1.0)]), cache_preset("64M:512K"),
                                   l3_share_cores=0)


class TestValidation:
    def test_size_must_divide_geometry(self):
        with pytest.raises(ValueError, match="not divisible"):
            CacheLevelConfig("L1", size_bytes=1000, associativity=8,
                             latency_cycles=4)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            CacheLevelConfig("L1", size_bytes=32 * KIB, associativity=8,
                             latency_cycles=-1)

    def test_hierarchy_capacity_ordering(self):
        l1 = CacheLevelConfig("L1", 32 * KIB, 8, 4)
        l2 = CacheLevelConfig("L2", 32 * KIB, 8, 9)  # same size as L1
        l3 = CacheLevelConfig("L3", 32 * MIB, 16, 68)
        with pytest.raises(ValueError, match="L1 < L2 < L3"):
            CacheHierarchy(label="bad", l1=l1, l2=l2, l3=l3)

    def test_hierarchy_latency_ordering(self):
        l1 = CacheLevelConfig("L1", 32 * KIB, 8, 10)
        l2 = CacheLevelConfig("L2", 256 * KIB, 8, 9)  # faster than L1
        l3 = CacheLevelConfig("L3", 32 * MIB, 16, 68)
        with pytest.raises(ValueError, match="latencies"):
            CacheHierarchy(label="bad", l1=l1, l2=l2, l3=l3)
