"""Tests for the exact set-associative cache simulator, including the
validation of the analytic stack-distance model against it."""

import numpy as np
import pytest

from repro.config import KIB, LINE_BYTES, CacheLevelConfig, cache_preset
from repro.trace import profile_stream
from repro.trace.streams import random_uniform, sequential_sweep
from repro.uarch import CacheHierarchySim, SetAssociativeCache


def small_cache(size_kb=4, assoc=4, latency=1):
    return CacheLevelConfig("T", size_kb * KIB, assoc, latency)


class TestSetAssociativeCache:
    def test_cold_misses(self):
        c = SetAssociativeCache(small_cache())
        for line in range(10):
            assert not c.access(line)
        assert c.stats.misses == 10

    def test_hit_after_fill(self):
        c = SetAssociativeCache(small_cache())
        c.access(5)
        assert c.access(5)
        assert c.stats.hits == 1

    def test_lru_eviction_order(self):
        # Direct test with 2-way, 1-set cache.
        cfg = CacheLevelConfig("T", 2 * LINE_BYTES, 2, 1)
        c = SetAssociativeCache(cfg)
        assert cfg.n_sets == 1
        c.access(0)
        c.access(1)
        c.access(0)        # 0 now MRU
        c.access(2)        # evicts 1 (LRU)
        assert c.access(0)
        assert not c.access(1)

    def test_working_set_fits(self):
        c = SetAssociativeCache(small_cache(size_kb=4))
        lines = list(range(c.config.n_lines // 2)) * 4
        hits = c.access_stream(lines)
        # Only the first pass misses.
        assert hits.sum() == len(lines) - c.config.n_lines // 2

    def test_thrashing(self):
        c = SetAssociativeCache(small_cache(size_kb=4))
        n = c.config.n_lines * 4
        lines = list(range(n)) * 2
        c.access_stream(lines)
        assert c.stats.miss_ratio == 1.0

    def test_reset(self):
        c = SetAssociativeCache(small_cache())
        c.access(1)
        c.reset()
        assert c.stats.accesses == 0
        assert not c.access(1)

    def test_stream_counts_accesses_and_misses(self):
        c = SetAssociativeCache(small_cache())
        c.access_stream(range(100))
        assert (c.stats.accesses, c.stats.misses) == (100, 100)


class TestHierarchySim:
    def test_inclusive_fill_path(self):
        h = CacheHierarchySim(cache_preset("32M:256K"))
        assert h.access(0) == 4          # cold: misses all levels
        assert h.access(0) == 1          # L1 hit
        # Touch enough lines to evict from L1 but not L2.
        for i in range(1, 1200):
            h.access(i * LINE_BYTES)
        level = h.access(0)
        assert level in (2, 3)           # evicted from L1, still on chip

    def test_l3_sharding_reduces_capacity(self):
        full = CacheHierarchySim(cache_preset("32M:256K"), l3_shards=1)
        shard = CacheHierarchySim(cache_preset("32M:256K"), l3_shards=64)
        assert shard.l3.config.size_bytes <= full.l3.config.size_bytes // 32

    def test_miss_lines_returns_dram_stream(self):
        h = CacheHierarchySim(cache_preset("32M:256K"), l3_shards=512)
        addrs = np.arange(64) * LINE_BYTES
        misses = h.miss_lines(np.tile(addrs, 2))
        assert len(misses) >= 64  # all cold accesses miss

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            CacheHierarchySim(cache_preset("32M:256K"), l3_shards=0)


class TestAnalyticModelValidation:
    """The sweep's stack-distance miss model must track the exact
    simulator on synthetic streams (DESIGN.md ablation #1)."""

    def _compare(self, stream, cfg, tol):
        sim = SetAssociativeCache(cfg)
        sim.access_stream(stream // LINE_BYTES)
        exact = sim.stats.miss_ratio
        profile = profile_stream(stream, max_samples=len(stream))
        model = profile.miss_ratio(cfg.n_lines, associativity=cfg.associativity,
                                   n_sets=cfg.n_sets)
        assert model == pytest.approx(exact, abs=tol), (exact, model)

    def test_sweep_fits(self):
        stream = sequential_sweep(ws_bytes=2 * KIB, n_sweeps=8, elem_bytes=8)
        self._compare(stream, small_cache(size_kb=8), tol=0.05)

    def test_sweep_thrashes(self):
        stream = sequential_sweep(ws_bytes=64 * KIB, n_sweeps=4, elem_bytes=8)
        self._compare(stream, small_cache(size_kb=4), tol=0.07)

    def test_random_small_ws(self):
        stream = random_uniform(ws_bytes=2 * KIB, n_accesses=20_000, seed=3)
        self._compare(stream, small_cache(size_kb=8), tol=0.05)

    def test_random_large_ws(self):
        stream = random_uniform(ws_bytes=128 * KIB, n_accesses=30_000, seed=4)
        self._compare(stream, small_cache(size_kb=16, assoc=8), tol=0.10)

    def test_borderline_working_set(self):
        stream = sequential_sweep(ws_bytes=8 * KIB, n_sweeps=6, elem_bytes=8)
        self._compare(stream, small_cache(size_kb=8, assoc=4), tol=0.15)
