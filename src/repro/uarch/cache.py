"""Exact set-associative LRU cache simulator.

This is the reference ("slow but exact") cache path: it replays raw
address streams through a configurable multi-level hierarchy.  The
design-space sweep itself uses the analytic stack-distance model in
:mod:`repro.uarch.hierarchy`; this simulator exists to *validate* that
model (see ``benchmarks/bench_ablations.py`` and the uarch tests) and to
feed the event-level DRAM controller with realistic miss streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..config.cache import LINE_BYTES, CacheHierarchy, CacheLevelConfig

__all__ = ["CacheStats", "SetAssociativeCache", "CacheHierarchySim"]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """One set-associative LRU cache level.

    Tag store: ``tags[set, way]`` holds line numbers (-1 = invalid);
    ``stamp[set, way]`` holds a logical clock for LRU ordering.  The
    per-access loop is Python, but each access touches only one set's
    small way-arrays, so even multi-million-access validation streams
    run in seconds.
    """

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        self.n_sets = config.n_sets
        self.assoc = config.associativity
        self._tags = np.full((self.n_sets, self.assoc), -1, dtype=np.int64)
        self._stamp = np.zeros((self.n_sets, self.assoc), dtype=np.int64)
        self._clock = 0
        self.stats = CacheStats()

    def reset(self) -> None:
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._clock = 0
        self.stats = CacheStats()

    def access(self, line: int) -> bool:
        """Access one cache line; returns True on hit.

        On a miss the LRU way of the set is replaced (allocate-on-miss,
        both loads and stores, as in TaskSim's write-allocate model).
        """
        self._clock += 1
        s = line % self.n_sets
        tags = self._tags[s]
        self.stats.accesses += 1
        hit = np.nonzero(tags == line)[0]
        if hit.size:
            self._stamp[s, hit[0]] = self._clock
            return True
        self.stats.misses += 1
        victim = int(np.argmin(self._stamp[s]))
        tags[victim] = line
        self._stamp[s, victim] = self._clock
        return False

    def access_stream(self, lines: Sequence[int]) -> np.ndarray:
        """Access many lines; returns a boolean hit mask."""
        out = np.empty(len(lines), dtype=bool)
        for i, line in enumerate(lines):
            out[i] = self.access(int(line))
        return out


class CacheHierarchySim:
    """Three-level exact hierarchy: L1 -> L2 -> L3 (all LRU, inclusive
    allocation: a miss allocates in every level on the refill path).

    ``l3_shards`` models the shared L3 being divided among concurrent
    cores: the effective L3 seen by this stream has ``size / l3_shards``
    capacity (set-sampled), matching the analytic model's fair-share
    assumption.
    """

    def __init__(self, hierarchy: CacheHierarchy, l3_shards: int = 1) -> None:
        if l3_shards <= 0:
            raise ValueError("l3_shards must be positive")
        self.hierarchy = hierarchy
        l3cfg = hierarchy.l3
        if l3_shards > 1:
            shard_size = max(
                l3cfg.associativity * LINE_BYTES,
                (l3cfg.size_bytes // l3_shards)
                // (l3cfg.associativity * LINE_BYTES)
                * (l3cfg.associativity * LINE_BYTES),
            )
            l3cfg = CacheLevelConfig(
                name="L3shard", size_bytes=shard_size,
                associativity=l3cfg.associativity,
                latency_cycles=l3cfg.latency_cycles,
            )
        self.l1 = SetAssociativeCache(hierarchy.l1)
        self.l2 = SetAssociativeCache(hierarchy.l2)
        self.l3 = SetAssociativeCache(l3cfg)

    def access(self, address: int) -> int:
        """Access a byte address; returns the level that hit (1, 2, 3)
        or 4 for main memory."""
        line = address // LINE_BYTES
        if self.l1.access(line):
            return 1
        if self.l2.access(line):
            return 2
        if self.l3.access(line):
            return 3
        return 4

    def run(self, addresses: Sequence[int]) -> Tuple[CacheStats, CacheStats, CacheStats]:
        """Replay a byte-address stream; returns per-level stats."""
        for a in addresses:
            self.access(int(a))
        return self.l1.stats, self.l2.stats, self.l3.stats

    def miss_lines(self, addresses: Sequence[int]) -> np.ndarray:
        """Replay a stream and return the line numbers that missed all
        levels, in order — the DRAM request stream."""
        out: List[int] = []
        for a in addresses:
            if self.access(int(a)) == 4:
                out.append(int(a) // LINE_BYTES)
        return np.asarray(out, dtype=np.int64)
