"""Cache hierarchy configurations (Table I of the paper).

Three L3:L2 sizing points are explored; L1 is fixed at 32 KB.  Sizes,
associativities and load-to-use latencies follow Table I:

=============  ======================  =====================
Label          L3 (shared)             L2 (private)
=============  ======================  =====================
32M:256K       32 MB / 16-way / 68cy   256 kB /  8-way /  9cy
64M:512K       64 MB / 16-way / 70cy   512 kB / 16-way / 11cy
96M:1M         96 MB / 16-way / 72cy   1 MB   / 16-way / 13cy
=============  ======================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "CacheLevelConfig",
    "CacheHierarchy",
    "CACHE_PRESETS",
    "cache_preset",
    "CACHE_LABELS",
    "KIB",
    "MIB",
    "LINE_BYTES",
]

KIB = 1024
MIB = 1024 * KIB

#: Cache line size used throughout the toolchain (bytes).
LINE_BYTES = 64


@dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level: capacity, associativity and access latency."""

    name: str
    size_bytes: int
    associativity: int
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"{self.name}: size must be positive")
        if self.associativity <= 0:
            raise ValueError(f"{self.name}: associativity must be positive")
        if self.size_bytes % (self.associativity * LINE_BYTES) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.associativity}*{LINE_BYTES})"
            )
        if self.latency_cycles < 0:
            raise ValueError(f"{self.name}: latency must be non-negative")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // LINE_BYTES

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity


@dataclass(frozen=True)
class CacheHierarchy:
    """Three-level hierarchy: private L1/L2 per core, shared L3."""

    label: str
    l1: CacheLevelConfig
    l2: CacheLevelConfig
    l3: CacheLevelConfig

    def __post_init__(self) -> None:
        if not (self.l1.size_bytes < self.l2.size_bytes < self.l3.size_bytes):
            raise ValueError("hierarchy must satisfy L1 < L2 < L3 capacity")
        if not (
            self.l1.latency_cycles
            <= self.l2.latency_cycles
            <= self.l3.latency_cycles
        ):
            raise ValueError("latencies must be monotonically non-decreasing")


def _l1() -> CacheLevelConfig:
    # Fixed across the whole design space ("L1=32K" in Fig. 6 captions).
    return CacheLevelConfig(name="L1", size_bytes=32 * KIB, associativity=8,
                            latency_cycles=4)


def _presets() -> Dict[str, CacheHierarchy]:
    return {
        "32M:256K": CacheHierarchy(
            label="32M:256K",
            l1=_l1(),
            l2=CacheLevelConfig("L2", 256 * KIB, 8, 9),
            l3=CacheLevelConfig("L3", 32 * MIB, 16, 68),
        ),
        "64M:512K": CacheHierarchy(
            label="64M:512K",
            l1=_l1(),
            l2=CacheLevelConfig("L2", 512 * KIB, 16, 11),
            l3=CacheLevelConfig("L3", 64 * MIB, 16, 70),
        ),
        "96M:1M": CacheHierarchy(
            label="96M:1M",
            l1=_l1(),
            l2=CacheLevelConfig("L2", 1 * MIB, 16, 13),
            l3=CacheLevelConfig("L3", 96 * MIB, 16, 72),
        ),
    }


CACHE_PRESETS: Dict[str, CacheHierarchy] = _presets()

#: Paper ordering used on figure x-axes (baseline first).
CACHE_LABELS: Tuple[str, ...] = ("32M:256K", "64M:512K", "96M:1M")


def cache_preset(name: str) -> CacheHierarchy:
    """Look up one of the three Table I cache hierarchies by label."""
    try:
        return CACHE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown cache preset {name!r}; choose from {sorted(CACHE_PRESETS)}"
        ) from None
