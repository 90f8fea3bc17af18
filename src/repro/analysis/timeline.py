"""Timeline analysis: the quantitative content of Figs. 3 and 4.

Fig. 3 shows Specfem3D's task starvation (few busy threads, a gray idle
expanse); Fig. 4 shows LULESH ranks stuck in MPI barriers behind load
imbalance.  Paraver renders those as pixel timelines; we compute the
statistics they visualize (per-thread occupancy, idle fraction,
per-rank MPI share) and provide an ASCII rendering for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..network.replay import ReplayResult, TimelineSegment
from ..runtime.scheduler import PhaseResult, TaskSpan

__all__ = [
    "OccupancyStats",
    "occupancy_stats",
    "RankActivityStats",
    "rank_activity_stats",
    "render_core_timeline",
    "render_rank_timeline",
]


@dataclass(frozen=True)
class OccupancyStats:
    """Thread-level occupancy of one scheduled phase (Fig. 3 metrics)."""

    n_cores: int
    makespan_ns: float
    busy_fraction: float           # aggregate busy / (cores x makespan)
    active_cores: int              # cores that executed at least one task
    idle_core_fraction: float      # cores that never ran a task

    @property
    def starved(self) -> bool:
        """True when most of the machine never gets a task — the Fig. 3
        signature."""
        return self.idle_core_fraction > 0.4 or self.busy_fraction < 0.5


def occupancy_stats(result: PhaseResult) -> OccupancyStats:
    """Occupancy statistics of a scheduled phase."""
    makespan = result.makespan_ns
    n = result.n_cores
    active = int((result.busy_ns > 0).sum())
    return OccupancyStats(
        n_cores=n,
        makespan_ns=makespan,
        busy_fraction=result.occupancy,
        active_cores=active,
        idle_core_fraction=1.0 - active / n,
    )


@dataclass(frozen=True)
class RankActivityStats:
    """Rank-level activity shares of a replayed run (Fig. 4 metrics)."""

    n_ranks: int
    total_ns: float
    collective_fraction: np.ndarray  # per-rank (barrier/allreduce incl. wait)
    p2p_fraction: np.ndarray

    @property
    def mean_collective_fraction(self) -> float:
        return float(self.collective_fraction.mean())


def rank_activity_stats(result: ReplayResult) -> RankActivityStats:
    if result.total_ns <= 0:
        raise ValueError("replay has non-positive duration")
    t = result.total_ns
    return RankActivityStats(
        n_ranks=result.n_ranks,
        total_ns=t,
        collective_fraction=result.collective_ns / t,
        p2p_fraction=result.p2p_ns / t,
    )


def render_core_timeline(spans: Sequence[TaskSpan], n_cores: int,
                         makespan_ns: float, width: int = 80,
                         max_cores: int = 32) -> str:
    """ASCII Fig. 3: one row per core, '#' where a task runs, '.' idle."""
    if width <= 0 or makespan_ns <= 0:
        raise ValueError("width and makespan must be positive")
    rows = min(n_cores, max_cores)
    grid = [["." for _ in range(width)] for _ in range(rows)]
    for span in spans:
        if span.core >= rows:
            continue
        a = int(span.start_ns / makespan_ns * width)
        b = max(a + 1, int(np.ceil(span.end_ns / makespan_ns * width)))
        for x in range(a, min(b, width)):
            grid[span.core][x] = "#"
    lines = [f"core {c:3d} |{''.join(grid[c])}|" for c in range(rows)]
    if n_cores > rows:
        lines.append(f"... ({n_cores - rows} more cores)")
    return "\n".join(lines)


_KIND_CHARS = {"compute": "#", "p2p": "-", "collective": "B", "wait": "w"}


def render_rank_timeline(segments: Sequence[TimelineSegment], n_ranks: int,
                         total_ns: float, width: int = 80,
                         max_ranks: int = 24) -> str:
    """ASCII Fig. 4: one row per rank; '#' compute, 'B' collective wait,
    '-' point-to-point, 'w' request wait."""
    if width <= 0 or total_ns <= 0:
        raise ValueError("width and total must be positive")
    rows = min(n_ranks, max_ranks)
    grid = [[" " for _ in range(width)] for _ in range(rows)]
    for seg in segments:
        if seg.rank >= rows:
            continue
        ch = _KIND_CHARS.get(seg.kind, "?")
        a = int(seg.start_ns / total_ns * width)
        b = max(a + 1, int(np.ceil(seg.end_ns / total_ns * width)))
        for x in range(a, min(b, width)):
            # Compute wins ties so thin waits don't mask work.
            if grid[seg.rank][x] == " " or ch == "#":
                grid[seg.rank][x] = ch
    lines = [f"rank {r:3d} |{''.join(grid[r])}|" for r in range(rows)]
    if n_ranks > rows:
        lines.append(f"... ({n_ranks - rows} more ranks)")
    return "\n".join(lines)
