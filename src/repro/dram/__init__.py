"""DRAM subsystem models (Ramulator substitute)."""

from .analytic import efficiency, sustained_bandwidth_gbs
from .bank import Bank
from .controller import (
    ChannelResult,
    CommandCounts,
    DramRequest,
    DramSystem,
    DramSystemResult,
)
from .timing import DRAM_STANDARDS, DramTiming, dram_standard

__all__ = [
    "Bank",
    "ChannelResult",
    "CommandCounts",
    "DRAM_STANDARDS",
    "DramRequest",
    "DramSystem",
    "DramSystemResult",
    "DramTiming",
    "dram_standard",
    "efficiency",
    "sustained_bandwidth_gbs",
]
