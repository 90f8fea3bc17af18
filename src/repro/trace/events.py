"""Compute-phase records of the coarse-grain (burst) trace.

A burst trace captures, per MPI rank, the alternation of compute phases
and MPI communication events over the whole application run — the same
information Extrae records for MUSA.  Its MPI calls are rows of the
trace's integer columns (:mod:`repro.trace.burst`); its compute phases,
defined here, carry the runtime system events (task creation, task
execution, barriers, critical sections) needed to re-simulate
scheduling for any core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

__all__ = ["TaskRecord", "ComputePhase"]


@dataclass(frozen=True)
class TaskRecord:
    """One runtime-system task instance inside a compute phase.

    ``duration_ns`` is the task's execution time measured in the native
    (reference) run; detailed simulation later replaces it.  ``deps``
    are intra-phase indices of tasks that must complete first (OmpSs
    input dependencies); an empty tuple means the task is immediately
    ready once created.
    """

    kernel: str
    duration_ns: float
    deps: Tuple[int, ...] = ()
    #: work units (e.g. grid cells) — used to rescale durations when the
    #: detailed model re-times the kernel.  Zero is allowed: irregular
    #: decompositions produce empty partitions whose tasks exist in the
    #: trace but carry no re-timeable work.
    work_units: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_ns) and self.duration_ns >= 0):
            raise ValueError("duration_ns must be finite and non-negative")
        if not (math.isfinite(self.work_units) and self.work_units >= 0):
            raise ValueError("work_units must be finite and non-negative")
        if any(d < 0 for d in self.deps):
            raise ValueError("dependency indices must be non-negative")


@dataclass(frozen=True)
class ComputePhase:
    """A parallel compute region delimited by MPI events.

    Attributes
    ----------
    phase_id:
        Index of the phase within its rank's trace.
    tasks:
        Task instances created in this phase (creation order).
    serial_ns:
        Sequential work executed by the master thread before tasks can
        start (e.g. loop setup, non-parallelized code).
    creation_ns:
        Runtime overhead, in wall-clock ns, paid by the creating thread
        *per task*.  Wall-clock because runtime event timings come from
        the native trace and do not scale with simulated frequency
        (Sec. V-B5).
    critical_ns:
        Total time inside ``omp critical`` sections, serialized across
        threads.
    """

    phase_id: int
    tasks: Tuple[TaskRecord, ...]
    serial_ns: float = 0.0
    creation_ns: float = 0.0
    critical_ns: float = 0.0

    def __post_init__(self) -> None:
        for name in ("serial_ns", "creation_ns", "critical_ns"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"phase overhead {name} must be finite and non-negative")
        n = len(self.tasks)
        for i, t in enumerate(self.tasks):
            for d in t.deps:
                if d >= i:
                    raise ValueError(
                        f"task {i} depends on {d}, but dependencies must "
                        "reference earlier tasks (creation order)"
                    )
                if d >= n:
                    raise ValueError("dependency index out of range")

    @property
    def total_task_ns(self) -> float:
        """Sum of reference task durations (perfect-parallelism work)."""
        return sum(t.duration_ns for t in self.tasks)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)
