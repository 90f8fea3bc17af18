"""Hand-written burst traces: the one place tests encode events.

A hand-written rank period is a sequence of :class:`ComputePhase`
objects and :class:`Call` tuples.  :func:`columns_from_ranks` turns one
period per rank into a trace's integer columns and :func:`burst` builds
the :class:`BurstTrace`, whose column checks validate them.
:func:`rank_events` reads a trace back as each rank's flat stream, and
:func:`request_scan` is the event-by-event request check those column
checks must agree with.
"""

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.trace import BurstTrace, ComputePhase, EventColumns
from repro.trace.burst import KINDS, PHASE


class Call(NamedTuple):
    """One MPI call of a hand-written period.  ``None`` marks a call
    without peer or request; nothing is checked until the trace is
    built."""

    kind: str
    peer: Optional[int] = None
    size_bytes: int = 0
    tag: int = 0
    request: Optional[int] = None


Event = Union[ComputePhase, Call]


def columns_from_ranks(
    periods: Sequence[Sequence[Event]],
) -> Tuple[EventColumns, Tuple[ComputePhase, ...]]:
    """Columns of one period per rank; phases are numbered by identity
    in order of first appearance."""
    index: Dict[int, int] = {}
    phases: List[ComputePhase] = []
    rows = []
    for period in periods:
        for ev in period:
            if isinstance(ev, ComputePhase):
                i = index.get(id(ev))
                if i is None:
                    i = index[id(ev)] = len(phases)
                    phases.append(ev)
                rows.append((PHASE, -1, 0, 0, -1, i))
            else:
                rows.append((KINDS.index(ev.kind),
                             -1 if ev.peer is None else ev.peer, ev.tag,
                             ev.size_bytes,
                             -1 if ev.request is None else ev.request, -1))
    table = np.array(rows, dtype=np.int64).reshape(-1, 6)
    offsets = np.cumsum([0] + [len(p) for p in periods], dtype=np.int64)
    return EventColumns(*table.T, offsets), tuple(phases)


def burst(periods: Sequence[Sequence[Event]], app: str = "t",
          repeats: int = 1, n_iterations: int = 1) -> BurstTrace:
    """The trace of one hand-written period per rank, rank 0 first."""
    return BurstTrace(app, *columns_from_ranks(periods), repeats=repeats,
                      n_iterations=n_iterations)


def rank_events(trace: BurstTrace) -> List[List[Event]]:
    """Each rank's flat stream: its period ``repeats`` times, copy ``k``
    offsetting every request id by ``k * (max id + 1)`` of the rank, the
    ids a rank numbering its requests across iterations would use.
    Phases are the trace's own objects."""
    c = trace.columns
    rows = list(zip(*(a.tolist() for a in c[:6])))
    bounds = c.offsets.tolist()
    streams = []
    for lo, hi in zip(bounds, bounds[1:]):
        period = rows[lo:hi]
        stride = 1 + max((row[4] for row in period), default=-1)
        streams.append([
            trace.phases[phase] if kind == PHASE else Call(
                KINDS[kind], None if peer < 0 else peer, size, tag,
                None if request < 0 else request + k * stride)
            for k in range(trace.repeats)
            for kind, peer, tag, size, request, phase in period])
    return streams


def request_scan(periods: Sequence[Sequence[Event]]) -> None:
    """Rank by rank, event by event: every isend/irecv request is new
    or waited on, every wait names a pending request, and the period
    ends with none pending.  Raises the ``ValueError`` the trace's
    column checks raise for the same periods."""
    for rank, period in enumerate(periods):
        pending = set()
        for ev in period:
            if isinstance(ev, ComputePhase):
                continue
            if ev.kind in {"isend", "irecv"}:
                if ev.request in pending:
                    raise ValueError(
                        f"rank {rank}: request {ev.request} reused "
                        "before being waited on")
                pending.add(ev.request)
            elif ev.kind == "wait":
                if ev.request not in pending:
                    raise ValueError(
                        f"rank {rank}: wait on unknown request "
                        f"{ev.request}")
                pending.discard(ev.request)
        if pending:
            raise ValueError(f"rank {rank}: unwaited requests "
                             f"{sorted(pending)}")
