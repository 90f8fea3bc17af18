"""Full compute-node configuration: the unit of the design space.

A :class:`NodeConfig` combines one value for each of the six explored
architectural axes (Table I): core OoO class, cache hierarchy, memory
subsystem, CPU frequency, FPU vector width, and cores per socket.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from .cache import CacheHierarchy, cache_preset
from .core import CoreConfig, core_preset
from .memory import MemoryConfig, memory_preset

__all__ = [
    "NodeConfig",
    "FREQUENCIES_GHZ",
    "VECTOR_WIDTHS_BITS",
    "CORE_COUNTS",
    "baseline_node",
]

#: Frequency axis of Table I (GHz).
FREQUENCIES_GHZ: Tuple[float, ...] = (1.5, 2.0, 2.5, 3.0)

#: Vector-width axis of Table I (bits); Table II extends to 1024/2048.
VECTOR_WIDTHS_BITS: Tuple[int, ...] = (128, 256, 512)

#: Cores-per-socket axis of Table I.
CORE_COUNTS: Tuple[int, ...] = (1, 32, 64)

_VALID_VECTOR_WIDTHS = (64, 128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class NodeConfig:
    """One point of the architectural design space."""

    core: CoreConfig
    cache: CacheHierarchy
    memory: MemoryConfig
    frequency_ghz: float
    vector_bits: int
    n_cores: int

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        if self.vector_bits not in _VALID_VECTOR_WIDTHS:
            raise ValueError(
                f"vector_bits must be one of {_VALID_VECTOR_WIDTHS}, "
                f"got {self.vector_bits}"
            )
        if self.n_cores <= 0:
            raise ValueError("n_cores must be positive")

    # -- derived quantities -------------------------------------------------

    @property
    def vector_lanes(self) -> int:
        """Number of double-precision (64-bit) SIMD lanes."""
        return max(1, self.vector_bits // 64)

    @property
    def label(self) -> str:
        """Compact human-readable identifier, stable across runs."""
        return (
            f"{self.core.label}|{self.cache.label}|{self.memory.label}"
            f"|{self.frequency_ghz:g}GHz|{self.vector_bits}b|{self.n_cores}c"
        )

    # -- variation helpers ---------------------------------------------------

    def with_(self, **kwargs) -> "NodeConfig":
        """Return a copy with the given fields replaced.

        String shorthands are accepted for the preset-backed axes, e.g.
        ``cfg.with_(core="medium", memory="8chDDR4")``.
        """
        if isinstance(kwargs.get("core"), str):
            kwargs["core"] = core_preset(kwargs["core"])
        if isinstance(kwargs.get("cache"), str):
            kwargs["cache"] = cache_preset(kwargs["cache"])
        if isinstance(kwargs.get("memory"), str):
            kwargs["memory"] = memory_preset(kwargs["memory"])
        return replace(self, **kwargs)

    def axis_values(self) -> dict:
        """Axis-label mapping used by normalization and reporting."""
        return {
            "core": self.core.label,
            "cache": self.cache.label,
            "memory": self.memory.label,
            "frequency": self.frequency_ghz,
            "vector": self.vector_bits,
            "cores": self.n_cores,
        }


def baseline_node(n_cores: int = 64) -> NodeConfig:
    """The reference configuration used for workload characterization (Fig. 1).

    Medium core, 64M:512K caches, 4-channel DDR4, 2 GHz, 128-bit SIMD.
    """
    return NodeConfig(
        core=core_preset("medium"),
        cache=cache_preset("64M:512K"),
        memory=memory_preset("4chDDR4"),
        frequency_ghz=2.0,
        vector_bits=128,
        n_cores=n_cores,
    )
