"""Node power breakdown in the paper's figure components.

Figures 5b-9b split node power into three stacked components:
``Core+L1``, ``L2+L3Cache`` and ``Memory``.  :class:`PowerBreakdown`
carries that split plus energy-to-solution helpers.  HBM configurations
have no memory energy data; their breakdown carries ``None`` and
propagates it, as in the paper's Fig. 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["PowerBreakdown"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Average node power (watts) split by component."""

    core_l1_w: float
    l2_l3_w: float
    memory_w: Optional[float]

    def __post_init__(self) -> None:
        if self.core_l1_w < 0 or self.l2_l3_w < 0:
            raise ValueError("power components must be non-negative")
        if self.memory_w is not None and self.memory_w < 0:
            raise ValueError("memory power must be non-negative")

    @property
    def total_w(self) -> Optional[float]:
        """Total node power; ``None`` when memory energy is unknown (HBM)."""
        if self.memory_w is None:
            return None
        return self.core_l1_w + self.l2_l3_w + self.memory_w

    @property
    def known_total_w(self) -> float:
        """Total over the components with known power (for HBM configs)."""
        return self.core_l1_w + self.l2_l3_w + (self.memory_w or 0.0)

    def energy_j(self, runtime_s: float) -> Optional[float]:
        """Energy-to-solution in joules; ``None`` without memory data."""
        if runtime_s < 0:
            raise ValueError("runtime must be non-negative")
        total = self.total_w
        return None if total is None else total * runtime_s

    def __add__(self, other: "PowerBreakdown") -> "PowerBreakdown":
        mem = (
            None
            if self.memory_w is None or other.memory_w is None
            else self.memory_w + other.memory_w
        )
        return PowerBreakdown(
            core_l1_w=self.core_l1_w + other.core_l1_w,
            l2_l3_w=self.l2_l3_w + other.l2_l3_w,
            memory_w=mem,
        )
