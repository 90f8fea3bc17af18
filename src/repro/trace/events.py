"""Event records of the coarse-grain (burst) trace.

A burst trace captures, per MPI rank, the alternation of compute phases
and MPI communication events over the whole application run — the same
information Extrae records for MUSA.  Compute phases carry the runtime
system events (task creation, task execution, barriers, critical
sections) needed to re-simulate scheduling for any core count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

__all__ = [
    "TaskRecord",
    "ComputePhase",
    "MpiCall",
    "P2P_KINDS",
    "COLLECTIVE_KINDS",
    "RankEvent",
]


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


P2P_KINDS = frozenset({"send", "recv", "isend", "irecv", "wait"})
COLLECTIVE_KINDS = frozenset(
    {"barrier", "allreduce", "reduce", "bcast", "alltoall", "allgather"}
)


@dataclass(frozen=True)
class MpiCall:
    """One MPI call in a rank's event stream.

    ``peer`` is the remote rank for point-to-point calls (``None`` for
    collectives), ``size_bytes`` the message payload (0 for barrier),
    and ``request`` a rank-local id linking isend/irecv to their wait.
    Peers and request ids are non-negative: a trace stores ``None`` as
    -1 in its integer columns.
    """

    kind: str
    peer: Optional[int] = None
    size_bytes: int = 0
    tag: int = 0
    request: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in P2P_KINDS and self.kind not in COLLECTIVE_KINDS:
            raise ValueError(f"unknown MPI call kind {self.kind!r}")
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if self.peer is not None and self.peer < 0:
            raise ValueError("peer must be a non-negative rank")
        if self.request is not None and self.request < 0:
            raise ValueError("request id must be non-negative")
        if self.kind in {"send", "recv", "isend", "irecv"} and self.peer is None:
            raise ValueError(f"{self.kind} requires a peer rank")
        if self.kind in {"isend", "irecv"} and self.request is None:
            raise ValueError(f"{self.kind} requires a request id")
        if self.kind == "wait" and self.request is None:
            raise ValueError("wait requires a request id")

    @property
    def is_collective(self) -> bool:
        return self.kind in COLLECTIVE_KINDS


#: A rank's trace is a sequence of these.
RankEvent = Union[ComputePhase, MpiCall]
