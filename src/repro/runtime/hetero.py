"""Heterogeneous (big.LITTLE) node scheduling.

Sec. II-B motivates "leaner core designs" as a first-class trend; the
natural follow-up question the paper leaves open is *mixing* core
classes in one socket: do a few big cores for the serial/imbalanced
tail plus many small cores beat a homogeneous die of the same area?

This module runs the runtime scheduler with per-core speed factors
(a task on core ``c`` runs for ``duration / speed[c]``) and provides
the area-normalized study helper: build mixed sockets that spend the
same silicon as a homogeneous one, schedule every application phase on
both, and compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config.core import core_preset
from ..config.node import NodeConfig
from ..power.area import AreaModel
from ..trace.events import ComputePhase
from .scheduler import PhaseResult, _list_schedule, _prologue

__all__ = ["simulate_phase_hetero", "HeteroMix", "area_matched_mix"]


def simulate_phase_hetero(
    phase: ComputePhase,
    core_speeds: Sequence[float],
    collect_spans: bool = False,
) -> PhaseResult:
    """Greedy list scheduling on cores with per-core speed factors.

    ``core_speeds[c]`` multiplies core ``c``'s execution rate (1.0 = the
    reference core the durations were timed for).  The scheduler is
    speed-aware: an idle fast core is preferred over an idle slow one
    (what a heterogeneity-aware runtime would do).  The master thread —
    creation overheads — runs on core 0, so put a big core first.  With
    every speed 1.0 the schedule is :func:`simulate_phase`'s, bit for
    bit: both run the same loop.
    """
    speeds = [float(s) for s in core_speeds]
    if not speeds or not all(0.0 < s < math.inf for s in speeds):
        raise ValueError("core_speeds must be non-empty, finite and positive")
    return _list_schedule(_prologue(phase, len(speeds)), speeds,
                          collect_spans)


@dataclass(frozen=True)
class HeteroMix:
    """A mixed-core socket: big cores first, then little cores."""

    n_big: int
    n_little: int
    #: little-core relative speed (vs the big core) for the workload
    little_speed: float

    def __post_init__(self) -> None:
        if self.n_big < 0 or self.n_little < 0 or \
                self.n_big + self.n_little == 0:
            raise ValueError("mix needs at least one core")
        if not 0 < self.little_speed <= 1.0:
            raise ValueError("little_speed must be in (0, 1]")

    @property
    def n_cores(self) -> int:
        return self.n_big + self.n_little

    def speeds(self) -> np.ndarray:
        return np.concatenate([
            np.ones(self.n_big),
            np.full(self.n_little, self.little_speed),
        ])


def area_matched_mix(
    node: NodeConfig,
    n_big: int,
    little_speed: float,
    big: str = "aggressive",
    little: str = "lowend",
    area_model: Optional[AreaModel] = None,
) -> HeteroMix:
    """Build a mixed socket spending the same core area as ``node``.

    Keeps ``n_big`` big cores and fills the remaining silicon of the
    homogeneous socket with little cores.
    """
    am = area_model or AreaModel()
    big_cfg = core_preset(big)
    little_cfg = core_preset(little)
    total_area = am.core_mm2(node) * node.n_cores
    big_area = am.core_mm2(node.with_(core=big_cfg)) * n_big
    if big_area > total_area:
        raise ValueError(
            f"{n_big} {big} cores already exceed the area budget")
    little_each = am.core_mm2(node.with_(core=little_cfg))
    n_little = int((total_area - big_area) // little_each)
    if n_little == 0 and n_big == 0:
        raise ValueError("area budget fits no cores at all")
    return HeteroMix(n_big=n_big, n_little=n_little,
                     little_speed=little_speed)
