"""Trace-level statistics (the paper's Sec. V-A inspection, quantified).

The authors analyse task-execution and MPI traces "with visualization
tools" to find the scaling limiters: task granularity, available
parallelism, serialized segments, message sizes.  This module computes
those statistics directly from a burst trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..trace.burst import BurstTrace
from ..trace.events import ComputePhase

__all__ = [
    "TaskGranularity",
    "task_granularity",
    "parallelism_profile",
    "message_stats",
    "trace_summary",
]


@dataclass(frozen=True)
class TaskGranularity:
    """Task-duration distribution of one phase (or a whole trace)."""

    n_tasks: int
    mean_ns: float
    p50_ns: float
    p95_ns: float
    max_over_mean: float      # the imbalance metric used throughout

    @classmethod
    def from_durations(cls, durations_ns) -> "TaskGranularity":
        d = np.asarray(list(durations_ns), dtype=np.float64)
        if len(d) == 0:
            raise ValueError("no tasks")
        return cls(
            n_tasks=len(d),
            mean_ns=float(d.mean()),
            p50_ns=float(np.percentile(d, 50)),
            p95_ns=float(np.percentile(d, 95)),
            max_over_mean=float(d.max() / d.mean()) if d.mean() > 0 else 0.0,
        )


def task_granularity(phase: ComputePhase) -> TaskGranularity:
    """Granularity statistics of one compute phase."""
    return TaskGranularity.from_durations(
        t.duration_ns for t in phase.tasks)


def parallelism_profile(phase: ComputePhase,
                        n_points: int = 64) -> np.ndarray:
    """Available parallelism over (virtual) time for one phase.

    Executes the phase on infinitely many cores with zero overheads and
    samples how many tasks run concurrently — the trace's *intrinsic*
    parallelism, independent of any machine (what caps Fig. 2a).
    """
    if n_points <= 0:
        raise ValueError("n_points must be positive")
    tasks = phase.tasks
    if not tasks:
        return np.zeros(n_points)
    # Infinite-core schedule: start = max over deps' finishes.
    start = [0.0] * len(tasks)
    finish = [0.0] * len(tasks)
    for i, t in enumerate(tasks):
        s = max((finish[d] for d in t.deps), default=0.0)
        start[i] = s
        finish[i] = s + t.duration_ns
    horizon = max(finish)
    if horizon <= 0:
        return np.zeros(n_points)
    times = np.linspace(0.0, horizon, n_points, endpoint=False)
    s_arr = np.asarray(start)
    f_arr = np.asarray(finish)
    return ((s_arr[None, :] <= times[:, None])
            & (times[:, None] < f_arr[None, :])).sum(axis=1).astype(float)


@dataclass(frozen=True)
class MessageStats:
    """Point-to-point and collective statistics of a trace."""

    n_p2p: int
    n_collectives: int
    total_bytes: int
    mean_message_bytes: float
    max_message_bytes: int


def message_stats(trace: BurstTrace) -> MessageStats:
    """Counted over each rank's period, scaled by the repeat count."""
    calls = [c for rt in trace.ranks for c in rt.mpi_calls()]
    sizes = [c.size_bytes for c in calls if c.kind in ("send", "isend")]
    n_coll = sum(c.is_collective for c in calls)
    reps = trace.repeats
    total = reps * sum(sizes)
    return MessageStats(
        n_p2p=reps * len(sizes),
        n_collectives=reps * n_coll,
        total_bytes=total,
        mean_message_bytes=total / (reps * len(sizes)) if sizes else 0.0,
        max_message_bytes=max(sizes) if sizes else 0,
    )


def trace_summary(trace: BurstTrace) -> Dict[str, object]:
    """One-stop trace characterization (Sec. V-A's table of limiters)."""
    phases = trace.ranks[0].compute_phases()   # one period of rank 0
    grans = [task_granularity(p) for p in phases if p.n_tasks]
    profiles = [parallelism_profile(p) for p in phases if p.n_tasks]
    mean_par = float(np.mean([p.mean() for p in profiles])) if profiles else 0.0
    peak_par = float(max((p.max() for p in profiles), default=0.0))
    msgs = message_stats(trace)
    return {
        "app": trace.app,
        "n_ranks": trace.n_ranks,
        "phases_per_rank": len(phases) * trace.repeats,
        "mean_task_us": float(np.mean([g.mean_ns for g in grans])) / 1e3
        if grans else 0.0,
        "worst_imbalance": max((g.max_over_mean for g in grans),
                               default=0.0),
        "mean_parallelism": mean_par,
        "peak_parallelism": peak_par,
        "p2p_messages": msgs.n_p2p,
        "collectives": msgs.n_collectives,
        "mpi_gbytes": msgs.total_bytes / 1e9,
    }
