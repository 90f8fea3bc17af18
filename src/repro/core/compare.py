"""Structured A/B comparison of two node configurations.

Answers the architect's everyday question — "what does moving from
node A to node B buy each workload, and what does it cost?" — as a
typed result, across any set of applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..apps.base import AppModel
from ..apps.registry import all_apps
from ..config.node import NodeConfig
from .musa import Musa

__all__ = ["AppDelta", "NodeComparison", "compare_nodes", "geo_mean"]


def geo_mean(values: Sequence[float]) -> float:
    """Geometric mean (the right average for ratios)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if len(arr) == 0:
        raise ValueError("geo_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geo_mean requires positive values")
    return float(np.exp(np.log(arr).mean()))


@dataclass(frozen=True)
class AppDelta:
    """One application's movement from node A to node B."""

    app: str
    speedup: float                 # time_A / time_B (>1 = B faster)
    power_ratio: float             # power_B / power_A
    energy_ratio: Optional[float]  # energy_B / energy_A (None for HBM)

    @property
    def perf_per_watt_ratio(self) -> float:
        return self.speedup / self.power_ratio


@dataclass(frozen=True)
class NodeComparison:
    """All applications' movements between two nodes."""

    node_a: NodeConfig
    node_b: NodeConfig
    deltas: Tuple[AppDelta, ...]

    def __getitem__(self, app: str) -> AppDelta:
        for d in self.deltas:
            if d.app == app:
                return d
        raise KeyError(f"no delta for app {app!r}")

    @property
    def mean_speedup(self) -> float:
        return geo_mean([d.speedup for d in self.deltas])

    def render(self) -> str:
        from ..analysis.report import format_rows

        rows = []
        for d in self.deltas:
            rows.append([d.app, d.speedup, d.power_ratio,
                         d.energy_ratio, d.perf_per_watt_ratio])
        rows.append(["GEOMEAN", self.mean_speedup, None, None, None])
        return format_rows(
            f"A = {self.node_a.label}\nB = {self.node_b.label}",
            ["app", "speedup (B)", "power ratio", "energy ratio",
             "perf/W ratio"],
            rows)


def compare_nodes(
    node_a: NodeConfig,
    node_b: NodeConfig,
    apps: Optional[Sequence[AppModel]] = None,
    n_ranks: int = 256,
) -> NodeComparison:
    """Simulate every app on both nodes and package the deltas."""
    if node_a.label == node_b.label:
        raise ValueError("comparing a node against itself")
    app_list = list(apps) if apps is not None else all_apps()
    if not app_list:
        raise ValueError("need at least one application")
    deltas = []
    for app in app_list:
        musa = Musa(app)
        ra = musa.simulate_node(node_a, n_ranks=n_ranks)
        rb = musa.simulate_node(node_b, n_ranks=n_ranks)
        pa, pb = ra.power.known_total_w, rb.power.known_total_w
        energy = (None if ra.energy_j is None or rb.energy_j is None
                  else rb.energy_j / ra.energy_j)
        deltas.append(AppDelta(
            app=app.name,
            speedup=ra.time_ns / rb.time_ns,
            power_ratio=pb / pa if pa > 0 else float("inf"),
            energy_ratio=energy,
        ))
    return NodeComparison(node_a=node_a, node_b=node_b,
                          deltas=tuple(deltas))
