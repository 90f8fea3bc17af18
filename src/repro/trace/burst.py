"""Burst (coarse-grain) trace containers.

A :class:`BurstTrace` is the whole-application, per-rank event stream
MUSA obtains with Extrae: compute phases carrying runtime-system events,
interleaved with MPI calls.  It is the input to both burst-mode
(hardware-agnostic) simulation and the communication replay.  A traced
region is iterative, so each rank stores one period plus a repeat count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, List, Tuple

from .events import ComputePhase, MpiCall, RankEvent

__all__ = ["RankTrace", "BurstTrace"]


@dataclass(frozen=True)
class RankTrace:
    """Event stream of one MPI rank: ``period`` run ``repeats`` times.

    A period must close every request it opens, so validating it
    validates every copy.  The summaries read the period and scale by
    ``repeats``; only :attr:`events` builds the flat stream.  A trace
    loaded from disk or written by hand is flat (``repeats == 1``).
    """

    rank: int
    period: Tuple[RankEvent, ...]
    repeats: int = 1

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        pending = set()
        for ev in self.period:
            if isinstance(ev, ComputePhase):
                continue
            if not isinstance(ev, MpiCall):
                raise TypeError(f"unexpected event type {type(ev).__name__}")
            if ev.kind in {"isend", "irecv"}:
                if ev.request in pending:
                    raise ValueError(
                        f"rank {self.rank}: request {ev.request} reused "
                        "before being waited on"
                    )
                pending.add(ev.request)
            elif ev.kind == "wait":
                if ev.request not in pending:
                    raise ValueError(
                        f"rank {self.rank}: wait on unknown request "
                        f"{ev.request}"
                    )
                pending.discard(ev.request)
        if pending:
            raise ValueError(
                f"rank {self.rank}: unwaited requests {sorted(pending)}"
            )

    @cached_property
    def events(self) -> Tuple[RankEvent, ...]:
        """The flat stream: ``repeats`` copies of the period.

        Copy ``k`` offsets every request id by ``k * (max id + 1)``, the
        ids a rank numbering its requests across iterations would use.
        Phases, request-free calls and all of copy 0 are the period's
        own objects.
        """
        stride = 1 + max((ev.request for ev in self.mpi_calls()
                          if ev.request is not None), default=-1)
        return tuple(
            ev if k == 0 or isinstance(ev, ComputePhase) or ev.request is None
            else replace(ev, request=ev.request + k * stride)
            for k in range(self.repeats) for ev in self.period)

    def compute_phases(self) -> List[ComputePhase]:
        """One period's compute phases."""
        return [e for e in self.period if isinstance(e, ComputePhase)]

    def mpi_calls(self) -> List[MpiCall]:
        """One period's MPI calls."""
        return [e for e in self.period if isinstance(e, MpiCall)]

    @property
    def total_compute_ns(self) -> float:
        """Reference (native-trace) compute time, perfectly parallel."""
        per = [p.total_task_ns + p.serial_ns for p in self.compute_phases()]
        # Summed in flat-stream order: the flat trace's value, bit for bit.
        return sum(per * self.repeats)

    @property
    def total_mpi_bytes(self) -> int:
        return self.repeats * sum(c.size_bytes for c in self.mpi_calls()
                                  if c.kind in {"send", "isend"})


@dataclass(frozen=True)
class BurstTrace:
    """Whole-application coarse trace: one :class:`RankTrace` per rank,
    every rank repeating its period equally often."""

    app: str
    ranks: Tuple[RankTrace, ...]
    #: iterations the traced region covers (for per-iteration metrics)
    n_iterations: int = 1

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("trace needs at least one rank")
        if self.n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        got = [r.rank for r in self.ranks]
        if got != list(range(len(self.ranks))):
            raise ValueError(f"ranks must be dense 0..N-1, got {got[:8]}...")
        if len({rt.repeats for rt in self.ranks}) > 1:
            raise ValueError("every rank must repeat its period equally often")
        n = len(self.ranks)
        for rt in self.ranks:
            for ev in rt.mpi_calls():
                if ev.peer is not None and not 0 <= ev.peer < n:
                    raise ValueError(
                        f"rank {rt.rank}: peer {ev.peer} out of range 0..{n-1}"
                    )

    @property
    def n_ranks(self) -> int:
        return len(self.ranks)

    @property
    def repeats(self) -> int:
        return self.ranks[0].repeats

    def __iter__(self) -> Iterator[RankTrace]:
        return iter(self.ranks)

    def kernel_names(self) -> List[str]:
        """All kernel names referenced by any task, sorted."""
        names = {
            t.kernel
            for rt in self.ranks
            for ph in rt.compute_phases()
            for t in ph.tasks
        }
        return sorted(names)

    def phase_counts(self) -> Tuple[int, int]:
        """(total compute phases, total MPI calls) across ranks."""
        n_phase = sum(len(rt.compute_phases()) for rt in self.ranks)
        n_mpi = sum(len(rt.mpi_calls()) for rt in self.ranks)
        return n_phase * self.repeats, n_mpi * self.repeats
