"""Tests for :mod:`repro.util` — the shared LRU memo dict, bounded by
entries or bytes.

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


class TestByteBudget:
    def test_evicts_least_recent_until_within_budget(self):
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            d = LruDict(max_bytes=10, eviction_counter="test.lru.evictions")
            d["a"] = b"aaaa"
            d["b"] = b"bbb"
            d["c"] = b"cc"
            assert d["a"] == b"aaaa"   # refresh "a": "b" is now LRU
            d["d"] = b"ddd"            # 12 bytes: drops "b" only
            assert list(d) == ["c", "a", "d"] and d.nbytes == 9
            assert reg.counter("test.lru.evictions") == 1
            d["e"] = b"eeeeeeee"       # 17 bytes: drops "c", "a", "d"
            assert list(d) == ["e"] and d.nbytes == 8
            assert reg.counter("test.lru.evictions") == 4
        finally:
            set_metrics(prev)

    def test_resident_bytes_never_exceed_budget(self):
        import random
        rng = random.Random(7)
        d = LruDict(max_bytes=64, eviction_counter="test.lru.evictions")
        for _ in range(500):
            key = rng.randrange(12)
            op = rng.random()
            if op < 0.7:
                d[key] = bytes(rng.randrange(80))
            elif op < 0.8:
                d.pop(key, None)
            elif op < 0.9 and d:
                d.popitem(last=rng.random() < 0.5)
            elif key in d:
                del d[key]
            assert d.nbytes == sum(len(v) for v in d.values())
            assert d.nbytes <= 64

    def test_oversized_value_not_kept(self):
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            d = LruDict(max_bytes=8, eviction_counter="test.lru.evictions")
            d["a"] = b"aaaa"
            d["big"] = b"x" * 9
            assert "big" not in d and list(d) == ["a"] and d.nbytes == 4
            d["a"] = b"y" * 9          # replaces nothing: the key drops
            assert not d and d.nbytes == 0
            assert reg.counter("test.lru.evictions") == 2
        finally:
            set_metrics(prev)

    def test_arrays_sized_by_nbytes(self):
        import numpy as np
        d = LruDict(max_bytes=100, eviction_counter="test.lru.evictions")
        d["a"] = np.zeros(5)
        d["b"] = "text"
        assert d.nbytes == 44
        d["a"] = np.zeros(2)
        assert d.nbytes == 20
        d.clear()
        assert d.nbytes == 0

    def test_both_bounds(self):
        d = LruDict(2, max_bytes=100, eviction_counter="test.lru.evictions")
        d["a"], d["b"], d["c"] = b"1", b"2", b"3"
        assert list(d) == ["b", "c"] and d.nbytes == 2

    def test_validation(self):
        for kwargs in ({}, {"max_bytes": -1}, {"maxsize": 0}):
            try:
                LruDict(eviction_counter="test.lru.evictions", **kwargs)
            except ValueError:
                continue
            raise AssertionError(f"{kwargs} must be rejected")
