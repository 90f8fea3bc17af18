"""Tornado (one-factor swing) sensitivity analysis.

PCA (Fig. 10) shows which variables co-move with execution time;
a tornado chart answers the blunter procurement question: holding a
baseline configuration fixed, how much does swinging each single axis
across its full range move the metric?  Complements the paired
normalization (which averages over the whole space) with a local view
around one design point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..config.node import NodeConfig
from ..config.space import DesignSpace
from .report import format_rows

__all__ = ["AxisSwing", "tornado", "render_tornado"]

_AXIS_SETTERS = {
    "core": lambda node, v: node.with_(core=v),
    "cache": lambda node, v: node.with_(cache=v),
    "memory": lambda node, v: node.with_(memory=v),
    "frequency": lambda node, v: node.with_(frequency_ghz=v),
    "vector": lambda node, v: node.with_(vector_bits=v),
}


@dataclass(frozen=True)
class AxisSwing:
    """Impact of swinging one axis around the baseline point."""

    axis: str
    low_value: object
    high_value: object
    low_metric: float       # metric at the worst axis value
    high_metric: float      # metric at the best axis value

    @property
    def swing(self) -> float:
        """Full-range relative impact (max/min of the metric)."""
        return self.low_metric / self.high_metric if self.high_metric > 0 \
            else float("inf")


def tornado(
    musa,
    baseline: NodeConfig,
    metric: str = "time_ns",
    space: Optional[DesignSpace] = None,
) -> List[AxisSwing]:
    """One-factor sensitivity of ``metric`` around ``baseline``.

    For each axis, every value from the design space is simulated with
    all other parameters pinned to the baseline; axes are returned
    sorted by swing, largest first (the tornado ordering).
    """
    space = space or DesignSpace()
    axis_values = {
        "core": space.core_labels,
        "cache": space.cache_labels,
        "memory": space.memory_labels,
        "frequency": space.frequencies,
        "vector": space.vector_widths,
    }
    base_record = musa.simulate_node(baseline).record()
    base_metric = base_record[metric]
    if base_metric is None:
        raise ValueError(f"baseline has no {metric} (HBM energy?)")

    swings: List[AxisSwing] = []
    for axis, values in axis_values.items():
        outcomes: List[Tuple[float, object]] = []
        for v in values:
            node = _AXIS_SETTERS[axis](baseline, v)
            rec = musa.simulate_node(node).record()
            m = rec[metric]
            if m is None:
                continue
            outcomes.append((float(m), v))
        if len(outcomes) < 2:
            continue
        worst = max(outcomes)
        best = min(outcomes)
        swings.append(AxisSwing(
            axis=axis, low_value=worst[1], high_value=best[1],
            low_metric=worst[0], high_metric=best[0],
        ))
    swings.sort(key=lambda s: s.swing, reverse=True)
    return swings


def render_tornado(swings: Sequence[AxisSwing], metric: str,
                   width: int = 40) -> str:
    """Text tornado chart: one bar per axis, sorted by swing."""
    if not swings:
        raise ValueError("no swings to render")
    max_swing = max(s.swing for s in swings)
    rows = []
    for s in swings:
        bar_len = max(1, int(round((s.swing - 1.0)
                                   / max(max_swing - 1.0, 1e-9) * width)))
        rows.append([
            s.axis,
            f"{s.swing:.2f}x",
            f"{s.high_value} .. {s.low_value}",
            "#" * bar_len,
        ])
    return format_rows(
        f"Tornado — full-range swing of {metric} per axis "
        "(best .. worst value)",
        ["axis", "swing", "best..worst", ""], rows)
