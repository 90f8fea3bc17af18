"""Burst (coarse-grain) trace containers.

A :class:`BurstTrace` is the whole-application, per-rank event stream
MUSA obtains with Extrae: compute phases carrying runtime-system events,
interleaved with MPI calls.  It is the input to both burst-mode
(hardware-agnostic) simulation and the communication replay.  A traced
region is iterative, so each rank stores one period plus a repeat count.

A trace stores its periods as flat integer columns
(:class:`EventColumns`): one row per event, ranks one after another,
each event a kind code plus its peer, tag, size, request id and phase
index.  The app generators emit the columns directly and the batched
replay builds its tape from them.  :attr:`BurstTrace.ranks`, one
:class:`RankTrace` of event objects per rank, is a view built on first
access for the readers that walk events one by one: the scalar replay,
serialization and trace statistics.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, replace
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from .events import (COLLECTIVE_KINDS, P2P_KINDS, ComputePhase, MpiCall,
                     RankEvent)

__all__ = ["RankTrace", "BurstTrace", "EventColumns", "KINDS", "PHASE",
           "SEND", "RECV", "ISEND", "IRECV", "WAIT", "FIRST_COLLECTIVE"]

#: Event kind codes of the columns: a compute phase, then the MPI calls.
KINDS: Tuple[str, ...] = ("phase", "send", "recv", "isend", "irecv", "wait",
                          "barrier", "allreduce", "reduce", "bcast",
                          "alltoall", "allgather")
PHASE, SEND, RECV, ISEND, IRECV, WAIT = range(6)
#: Codes from here on are collectives.
FIRST_COLLECTIVE = 6
assert set(KINDS[1:FIRST_COLLECTIVE]) == P2P_KINDS
assert set(KINDS[FIRST_COLLECTIVE:]) == COLLECTIVE_KINDS
_CODE: Dict[str, int] = {k: i for i, k in enumerate(KINDS)}


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


class EventColumns(NamedTuple):
    """Event streams of all ranks as int64 columns, one row per event.

    Rank ``r``'s events are rows ``offsets[r]:offsets[r + 1]``, in
    program order.  ``kind`` is a code into :data:`KINDS`; ``peer`` and
    ``request`` hold -1 where the call has none; ``phase`` indexes the
    trace's ``phases`` for a compute phase and is -1 for an MPI call.
    """

    kind: np.ndarray
    peer: np.ndarray
    tag: np.ndarray
    size: np.ndarray
    request: np.ndarray
    phase: np.ndarray
    offsets: np.ndarray

    @property
    def n_ranks(self) -> int:
        return len(self.offsets) - 1

    def event_ranks(self) -> np.ndarray:
        """The rank of every row."""
        return np.repeat(np.arange(self.n_ranks), np.diff(self.offsets))


def _columns_from_ranks(
    ranks: Sequence[RankTrace],
) -> Tuple[EventColumns, Tuple[ComputePhase, ...]]:
    """Columns of the ranks' periods; phases are numbered by identity in
    order of first appearance."""
    index: Dict[int, int] = {}
    phases: List[ComputePhase] = []
    rows = []
    for rt in ranks:
        for ev in rt.period:
            if isinstance(ev, ComputePhase):
                i = index.get(id(ev))
                if i is None:
                    i = index[id(ev)] = len(phases)
                    phases.append(ev)
                rows.append((PHASE, -1, 0, 0, -1, i))
            else:
                rows.append((_CODE[ev.kind],
                             -1 if ev.peer is None else ev.peer, ev.tag,
                             ev.size_bytes,
                             -1 if ev.request is None else ev.request, -1))
    table = np.array(rows, dtype=np.int64).reshape(-1, 6)
    offsets = np.cumsum([0] + [len(rt.period) for rt in ranks],
                        dtype=np.int64)
    return EventColumns(*table.T, offsets), tuple(phases)


def _check_rows(cols: EventColumns, n_phases: int) -> None:
    """Each row must hold an event :class:`MpiCall` or a phase index
    allows: raises the :class:`MpiCall` message for the first bad row."""
    kind, peer, request, phase = cols.kind, cols.peer, cols.request, cols.phase
    n_rows = len(kind)
    if any(len(a) != n_rows for a in cols[1:6]):
        raise ValueError("event columns must all have one entry per row")
    bounds = cols.offsets
    if bounds[0] != 0 or bounds[-1] != n_rows or (np.diff(bounds) < 0).any():
        raise ValueError(f"offsets must rise from 0 to the row count {n_rows}")
    p2p = (kind >= SEND) & (kind <= IRECV)
    opens = (kind == ISEND) | (kind == IRECV)
    is_phase = kind == PHASE
    faults = (
        ((kind < 0) | (kind >= len(KINDS)), lambda i: (
            f"unknown event kind code {kind[i]}")),
        (cols.size < 0, lambda i: "size_bytes must be non-negative"),
        (peer < -1, lambda i: "peer must be a non-negative rank"),
        (request < -1, lambda i: "request id must be non-negative"),
        (p2p & (peer < 0), lambda i: f"{KINDS[kind[i]]} requires a peer rank"),
        (opens & (request < 0), lambda i: (
            f"{KINDS[kind[i]]} requires a request id")),
        (is_phase & ((phase < 0) | (phase >= n_phases)), lambda i: (
            f"phase index {phase[i]} out of range 0..{n_phases - 1}")),
        (~is_phase & (phase != -1), lambda i: (
            f"{KINDS[kind[i]]} row carries phase index {phase[i]}")),
    )
    for bad, message in faults:
        if bad.any():
            i = int(np.argmax(bad))
            rank = np.searchsorted(bounds, i, side="right") - 1
            raise ValueError(f"rank {rank}, event {i - bounds[rank]}: "
                             f"{message(i)}")


def _check_columns(cols: EventColumns, n_phases: int) -> None:
    """The trace invariants, as array checks over the columns: rows
    that :class:`MpiCall` and the phase tuple allow, peers in range,
    and every request opened before its wait, never reused while
    pending, and closed within the period.

    Raises the errors :class:`MpiCall`, :class:`RankTrace` and
    :class:`BurstTrace` raise for the same events; among several
    request faults, the first rank's earliest wins.
    """
    _check_rows(cols, n_phases)
    n = cols.n_ranks
    kind, peer, request = cols.kind, cols.peer, cols.request
    bad = np.flatnonzero(peer >= n)
    if bad.size:
        rank = np.searchsorted(cols.offsets, bad[0], side="right") - 1
        raise ValueError(
            f"rank {rank}: peer {peer[bad[0]]} out of range 0..{n - 1}")

    # Requests: sorted by (rank, request, position), each request's
    # calls must alternate open (isend/irecv), wait, open, ... and end
    # on a wait.
    pos = np.flatnonzero((kind >= ISEND) & (kind <= WAIT))
    if not pos.size:
        return
    rank = cols.event_ranks()[pos]
    req = request[pos]
    order = np.lexsort((pos, req, rank))
    pos, rank, req = pos[order], rank[order], req[order]
    opens = kind[pos] != WAIT
    same = np.concatenate(
        ([False], (rank[1:] == rank[:-1]) & (req[1:] == req[:-1])))
    after_open = np.concatenate(([False], opens[:-1])) & same
    wrong = opens == after_open          # reopened, or waited unopened
    unwaited = opens & ~np.concatenate((same[1:], [False]))
    if not (wrong.any() or unwaited.any()):
        return
    r = rank[wrong | unwaited].min()
    here = np.flatnonzero(wrong & (rank == r))
    if here.size:
        i = here[np.argmin(pos[here])]
        if opens[i]:
            raise ValueError(
                f"rank {r}: request {req[i]} reused before being waited on")
        raise ValueError(f"rank {r}: wait on unknown request {req[i]}")
    pending = sorted(req[unwaited & (rank == r)].tolist())
    raise ValueError(f"rank {r}: unwaited requests {pending}")


class BurstTrace:
    """Whole-application coarse trace: every rank's period as
    :class:`EventColumns`, every rank repeating its period equally often.

    Construct it from one :class:`RankTrace` per rank (hand-written and
    loaded traces; they are converted to columns once and kept as the
    :attr:`ranks` view), or from columns with :meth:`from_columns`.
    """

    def __init__(self, app: str, ranks: Sequence[RankTrace],
                 n_iterations: int = 1) -> None:
        ranks = tuple(ranks)
        if not ranks:
            raise ValueError("trace needs at least one rank")
        if n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        got = [r.rank for r in ranks]
        if got != list(range(len(ranks))):
            raise ValueError(f"ranks must be dense 0..N-1, got {got[:8]}...")
        if len({rt.repeats for rt in ranks}) > 1:
            raise ValueError("every rank must repeat its period equally often")
        columns, phases = _columns_from_ranks(ranks)
        self._init(app, columns, phases, ranks[0].repeats, n_iterations)
        self.__dict__["ranks"] = ranks

    @classmethod
    def from_columns(cls, app: str, columns: EventColumns,
                     phases: Sequence[ComputePhase], repeats: int = 1,
                     n_iterations: int = 1) -> "BurstTrace":
        """A trace over ``columns``, whose ``phase`` column indexes
        ``phases``.  Every row must hold what :class:`MpiCall` allows
        (a kind code, a non-negative size, a peer on every
        point-to-point call, a request on every isend and irecv, -1
        where there is none) and a phase row an index into ``phases``;
        peers and requests are then checked as the :class:`RankTrace`
        path checks them.  Raises ``ValueError`` otherwise."""
        trace = cls.__new__(cls)
        trace._init(app, columns, tuple(phases), repeats, n_iterations)
        return trace

    def _init(self, app: str, columns: EventColumns,
              phases: Tuple[ComputePhase, ...], repeats: int,
              n_iterations: int) -> None:
        columns = EventColumns(*(np.array(a, dtype=np.int64)
                                 for a in columns))
        if columns.n_ranks < 1:
            raise ValueError("trace needs at least one rank")
        if n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        if repeats < 1:
            raise ValueError("repeats must be positive")
        _check_columns(columns, len(phases))
        for a in columns:
            a.flags.writeable = False
        # Set once: the attributes are read-only afterwards (see
        # __setattr__), as cached tapes keyed on the trace rely on.
        # ``n_iterations`` is the number of iterations the traced region
        # covers (for per-iteration metrics).
        self.__dict__.update(app=app, columns=columns, phases=phases,
                             repeats=repeats, n_iterations=n_iterations)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def ranks(self) -> Tuple[RankTrace, ...]:
        """One :class:`RankTrace` of event objects per rank, built from
        the columns on first access."""
        c = self.columns
        phases = self.phases
        events = [
            phases[ph] if k == PHASE else MpiCall(
                kind=KINDS[k], peer=None if p < 0 else p, size_bytes=s,
                tag=t, request=None if q < 0 else q)
            for k, p, t, s, q, ph in zip(*(a.tolist() for a in c[:6]))]
        bounds = c.offsets.tolist()
        return tuple(
            RankTrace(rank=r, period=tuple(events[bounds[r]:bounds[r + 1]]),
                      repeats=self.repeats)
            for r in range(c.n_ranks))

    @property
    def n_ranks(self) -> int:
        return self.columns.n_ranks

    def __iter__(self) -> Iterator[RankTrace]:
        return iter(self.ranks)

    def __repr__(self) -> str:
        return (f"BurstTrace(app={self.app!r}, n_ranks={self.n_ranks}, "
                f"repeats={self.repeats}, n_iterations={self.n_iterations})")

    def kernel_names(self) -> List[str]:
        """All kernel names referenced by any task, sorted."""
        return sorted({t.kernel for ph in self.phases for t in ph.tasks})
