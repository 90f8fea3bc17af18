"""Architectural configuration layer (Table I / Table II of the paper)."""

from .cache import (
    CACHE_LABELS,
    CACHE_PRESETS,
    KIB,
    LINE_BYTES,
    MIB,
    CacheHierarchy,
    CacheLevelConfig,
    cache_preset,
)
from .core import CORE_LABELS, CORE_PRESETS, CoreConfig, core_preset
from .memory import (
    GB,
    MEMORY_LABELS,
    MEMORY_PRESETS,
    MemoryConfig,
    memory_preset,
)
from .parse import parse_node
from .node import (
    CORE_COUNTS,
    FREQUENCIES_GHZ,
    VECTOR_WIDTHS_BITS,
    NodeConfig,
    baseline_node,
)
from .space import (
    AXES,
    FIGURE_AXES,
    DesignSpace,
    axis_linspace,
    axis_range,
    full_design_space,
    plane_design_space,
    range_design_space,
    smoke_design_space,
    unconventional_configs,
)

__all__ = [
    "AXES",
    "CACHE_LABELS",
    "CACHE_PRESETS",
    "CORE_COUNTS",
    "CORE_LABELS",
    "CORE_PRESETS",
    "FIGURE_AXES",
    "FREQUENCIES_GHZ",
    "GB",
    "KIB",
    "LINE_BYTES",
    "MEMORY_LABELS",
    "MEMORY_PRESETS",
    "MIB",
    "VECTOR_WIDTHS_BITS",
    "CacheHierarchy",
    "CacheLevelConfig",
    "CoreConfig",
    "DesignSpace",
    "MemoryConfig",
    "NodeConfig",
    "axis_linspace",
    "axis_range",
    "baseline_node",
    "cache_preset",
    "core_preset",
    "full_design_space",
    "memory_preset",
    "plane_design_space",
    "range_design_space",
    "smoke_design_space",
    "parse_node",
    "unconventional_configs",
]
