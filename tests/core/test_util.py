"""Tests for :mod:`repro.util` — the shared LRU memo dict.

The eviction path is hot (it runs inside memo inserts on the batched
evaluation fast path), so beyond the LRU semantics these tests pin the
PR 8 bugfix: evictions are counted in one batched ``inc(n)`` per
``__setitem__`` call through a cached module-level metrics lookup, not
an import-machinery round-trip per evicted entry.
"""

import repro.util as util
from repro.obs import MetricsRegistry, set_metrics
from repro.util import LruDict


class TestLruSemantics:
    def test_reads_refresh_recency(self):
        d = LruDict(2, eviction_counter="test.lru.evictions")
        d["a"] = 1
        d["b"] = 2
        assert d["a"] == 1  # refresh "a"
        d["c"] = 3          # evicts "b", the LRU entry
        assert "a" in d and "c" in d and "b" not in d

    def test_get_refreshes_and_defaults(self):
        d = LruDict(2, eviction_counter="test.lru.evictions")
        d["a"] = 1
        d["b"] = 2
        assert d.get("a") == 1
        assert d.get("missing", 42) == 42
        d["c"] = 3
        assert "b" not in d and "a" in d

    def test_overwrite_does_not_evict(self):
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            d = LruDict(2, eviction_counter="test.lru.evictions")
            d["a"] = 1
            d["a"] = 2
            d["b"] = 3
            assert d["a"] == 2
            assert reg.counter("test.lru.evictions") == 0
        finally:
            set_metrics(prev)

    def test_maxsize_validation(self):
        try:
            LruDict(0, eviction_counter="test.lru.evictions")
        except ValueError:
            pass
        else:  # pragma: no cover - guard
            raise AssertionError("maxsize=0 must be rejected")


class TestEvictionCounting:
    def test_single_eviction_counted(self):
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            d = LruDict(1, eviction_counter="test.lru.evictions")
            d["a"] = 1
            d["b"] = 2  # evicts "a"
            assert reg.counter("test.lru.evictions") == 1
        finally:
            set_metrics(prev)

    def test_multi_eviction_batched_into_one_inc(self):
        # Shrinking maxsize makes one insert evict several entries; the
        # counter must reflect every eviction even though only one
        # (batched) inc runs per __setitem__ call.
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            d = LruDict(4, eviction_counter="test.lru.evictions")
            for i in range(4):
                d[i] = i
            assert reg.counter("test.lru.evictions") == 0
            d.maxsize = 1
            d["x"] = 99  # one call, four evictions (0, 1, 2, 3)
            assert reg.counter("test.lru.evictions") == 4
            assert list(d) == ["x"]
        finally:
            set_metrics(prev)

    def test_no_eviction_no_metrics_touch(self):
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            d = LruDict(8, eviction_counter="test.lru.evictions")
            for i in range(8):
                d[i] = i
            assert reg.counter("test.lru.evictions") == 0
        finally:
            set_metrics(prev)

    def test_metrics_lookup_cached_but_registry_swap_respected(self):
        # The module caches the get_metrics *function* (one import per
        # process), never a registry instance — a set_metrics swap after
        # the first eviction must still route counts to the new registry.
        d = LruDict(1, eviction_counter="test.lru.evictions")
        reg_a = MetricsRegistry()
        prev = set_metrics(reg_a)
        try:
            d["a"] = 1
            d["b"] = 2  # first eviction resolves and caches the lookup
            assert util._get_metrics is not None
            assert reg_a.counter("test.lru.evictions") == 1
            reg_b = MetricsRegistry()
            set_metrics(reg_b)
            d["c"] = 3
            assert reg_b.counter("test.lru.evictions") == 1
            assert reg_a.counter("test.lru.evictions") == 1
        finally:
            set_metrics(prev)
