"""Network and MPI replay models (Dimemas substitute)."""

from .collectives import collective_cost_ns
from .model import NetworkConfig, marenostrum4_network
from .replay import ReplayResult, TimelineSegment, replay

__all__ = [
    "NetworkConfig",
    "ReplayResult",
    "TimelineSegment",
    "collective_cost_ns",
    "marenostrum4_network",
    "replay",
]
