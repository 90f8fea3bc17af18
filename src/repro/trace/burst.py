"""Burst (coarse-grain) trace containers.

A :class:`BurstTrace` is the whole-application, per-rank event stream
MUSA obtains with Extrae: compute phases carrying runtime-system events,
interleaved with MPI calls.  It is the input to both burst-mode
(hardware-agnostic) simulation and the communication replay.  A traced
region is iterative, so each rank stores one period plus a repeat count.

A trace is its periods as flat integer columns (:class:`EventColumns`):
one row per event, ranks one after another, each event a kind code
plus its peer, tag, size, request id and phase index.  The app
generators emit the columns, :func:`_check_columns` validates them, the
scalar replay walks each rank's rows ``repeats`` times and the batched
replay builds its tape from them.  No event object is built.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .events import ComputePhase

__all__ = ["BurstTrace", "EventColumns", "KINDS", "PHASE", "SEND", "RECV",
           "ISEND", "IRECV", "WAIT", "FIRST_COLLECTIVE"]

#: Event kind codes of the columns: a compute phase, then the MPI calls.
KINDS: Tuple[str, ...] = ("phase", "send", "recv", "isend", "irecv", "wait",
                          "barrier", "allreduce", "reduce", "bcast",
                          "alltoall", "allgather")
PHASE, SEND, RECV, ISEND, IRECV, WAIT = range(6)
#: Codes from here on are collectives.
FIRST_COLLECTIVE = 6


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


def _check_rows(cols: EventColumns, n_phases: int) -> None:
    """Each row must be a known kind with a non-negative size, a peer
    on every point-to-point call, a request on every isend, irecv and
    wait, -1 where there is none, and a phase row an index into the
    trace's ``n_phases`` phases: raises for the first bad row."""
    kind, peer, request, phase = cols.kind, cols.peer, cols.request, cols.phase
    n_rows = len(kind)
    if any(len(a) != n_rows for a in cols[1:6]):
        raise ValueError("event columns must all have one entry per row")
    bounds = cols.offsets
    if bounds[0] != 0 or bounds[-1] != n_rows or (np.diff(bounds) < 0).any():
        raise ValueError(f"offsets must rise from 0 to the row count {n_rows}")
    p2p = (kind >= SEND) & (kind <= IRECV)
    requests = (kind >= ISEND) & (kind <= WAIT)
    is_phase = kind == PHASE
    faults = (
        ((kind < 0) | (kind >= len(KINDS)), lambda i: (
            f"unknown event kind code {kind[i]}")),
        (cols.size < 0, lambda i: "size_bytes must be non-negative"),
        (peer < -1, lambda i: "peer must be a non-negative rank"),
        (request < -1, lambda i: "request id must be non-negative"),
        (p2p & (peer < 0), lambda i: f"{KINDS[kind[i]]} requires a peer rank"),
        (requests & (request < 0), lambda i: (
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
    that :func:`_check_rows` allows, peers in range, and every request
    opened before its wait, never reused while pending, and closed
    within the period.  A period that closes every request it opens
    stays valid when repeated with the same request ids.

    Raises ``ValueError`` naming the rank of the first fault; among
    several request faults, the first rank's earliest wins.
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
    :class:`EventColumns`, every rank repeating it ``repeats`` times.

    The ``phase`` column indexes ``phases``.  ``n_iterations`` is the
    number of iterations the traced region covers (for per-iteration
    metrics).  Raises ``ValueError`` unless the columns pass
    :func:`_check_columns`.
    """

    def __init__(self, app: str, columns: EventColumns,
                 phases: Sequence[ComputePhase], repeats: int = 1,
                 n_iterations: int = 1) -> None:
        columns = EventColumns(*(np.array(a, dtype=np.int64)
                                 for a in columns))
        phases = tuple(phases)
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
        self.__dict__.update(app=app, columns=columns, phases=phases,
                             repeats=repeats, n_iterations=n_iterations)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def n_ranks(self) -> int:
        return self.columns.n_ranks

    def __repr__(self) -> str:
        return (f"BurstTrace(app={self.app!r}, n_ranks={self.n_ranks}, "
                f"repeats={self.repeats}, n_iterations={self.n_iterations})")

    def kernel_names(self) -> List[str]:
        """All kernel names referenced by any task, sorted."""
        return sorted({t.kernel for ph in self.phases for t in ph.tasks})
