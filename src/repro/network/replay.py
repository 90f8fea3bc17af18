"""Event-driven replay of MPI communication traces (Dimemas substitute).

The replay walks every rank's event stream, matching point-to-point
messages (eager vs rendezvous), synchronizing collectives, and charging
compute-phase durations supplied by a callback — burst-mode scheduling
results or detailed-simulation timings, exactly how MUSA splices the
two levels together (Sec. II).

The engine is a reactive discrete-event simulator in the Dimemas
tradition (Girona et al., EuroPVM/MPI 2000): runnable ranks sit in a
ready-heap keyed by virtual time, and a rank blocked on an unmatched
message, an unresolved request, or an incomplete collective is parked
on an explicit wake list and re-examined exactly once — when its
dependency resolves.  O(events x log ranks).

The engine advances exactly one event at a time, always for the ready
rank with the minimum ``(clock, rank)`` key.  That global virtual-time
ordering is what makes the finite-bus pool — the only *shared* network
resource — deterministic: transfers acquire buses in simulated-time
order, never in rank-scan order, so the replay is provably invariant
to the order ranks are iterated in (see ``rank_order``).

Message costs are order-independent by construction: an eager/isend
transfer's arrival (bus queueing + sender-link serialization) is
computed once, on the sending side, and travels with the buffered
message; a rendezvous transfer is priced by one shared helper whether
the match happens on the sender's or the receiver's side.

An empty ready set with ranks still outstanding is a genuine
communication deadlock in the trace and raises, naming the stuck ranks
and the events they are stuck on.

This engine is the one scalar reference for replay.  Design-space
sweeps that replay one trace under many node configurations go through
:func:`repro.network.replay_batch.replay_batch`: with unlimited buses
the ``(clock, rank)`` order is unobservable, so it prices the whole
batch from a structural tape in one NumPy pass; anything else (a
finite bus pool, where per-config clocks decide the grant order) runs
this engine once per configuration.  The tape path's equivalence to
this engine is pinned by the property tests in
``tests/network/test_replay_batch.py``.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics
from ..trace.burst import BurstTrace
from ..trace.events import ComputePhase, MpiCall
from .collectives import collective_cost_ns
from .model import NetworkConfig

__all__ = ["ReplayResult", "TimelineSegment", "replay"]

#: Maps (rank, phase) to its simulated duration in ns.
PhaseDurationFn = Callable[[int, ComputePhase], float]


@dataclass(frozen=True)
class TimelineSegment:
    """One activity interval of one rank (Fig. 4-style timelines)."""

    rank: int
    kind: str        # 'compute' | 'p2p' | 'collective' | 'wait'
    start_ns: float
    end_ns: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a full application trace."""

    total_ns: float
    compute_ns: np.ndarray        # per-rank time inside compute phases
    p2p_ns: np.ndarray            # per-rank time in point-to-point calls
    collective_ns: np.ndarray     # per-rank time in collectives (incl. wait)
    n_messages: int
    bytes_sent: int
    segments: Optional[Tuple[TimelineSegment, ...]] = None

    @property
    def n_ranks(self) -> int:
        return len(self.compute_ns)


class _BusPool:
    """Dimemas's finite-bus model: at most ``n_buses`` simultaneous
    transfers network-wide; a transfer may start once a bus frees up.

    Buses are granted in acquisition order, which the engine keeps in
    simulated-time order — the pool itself is order-deterministic given
    that discipline.
    """

    def __init__(self, n_buses: int) -> None:
        self.n_buses = n_buses
        self.n_waits = 0
        self._free: List[float] = [0.0] * n_buses if n_buses > 0 else []

    def acquire(self, ready_ns: float, duration_ns: float) -> float:
        """Returns the transfer start time (>= ready_ns) and occupies a
        bus for ``duration_ns`` from then.  Unlimited pools are free."""
        if self.n_buses <= 0:
            return ready_ns
        earliest = heapq.heappop(self._free)
        start = max(ready_ns, earliest)
        if start > ready_ns:
            self.n_waits += 1
        heapq.heappush(self._free, start + duration_ns)
        return start


class _Matcher:
    """Point-to-point message matching (FIFO per (src, dst, tag))."""

    def __init__(self) -> None:
        # (src, dst, tag) -> deque of buffered eager/isend records
        # (arrival_ns, transfer_ns): the arrival already includes bus
        # queueing and sender-link serialization, so a recv matched
        # later prices the message identically to one matched earlier.
        self.sends: Dict[Tuple[int, int, int], deque] = defaultdict(deque)
        # (src, dst, tag) -> deque of posted recv records (post_ns, resolver)
        self.recvs: Dict[Tuple[int, int, int], deque] = defaultdict(deque)
        # (src, dst, tag) -> deque of rendezvous sends awaiting their
        # receiver: (ready_ns, transfer_ns, sender_release_slot, sender)
        self.rdv_sends: Dict[Tuple[int, int, int], deque] = defaultdict(deque)


@dataclass
class _RankState:
    clock: float = 0.0
    cursor: int = 0
    compute_ns: float = 0.0
    p2p_ns: float = 0.0
    collective_ns: float = 0.0
    #: request id -> completion time (ns) for posted isend/irecv
    requests: Dict[int, object] = field(default_factory=dict)
    #: release slot of an in-progress blocking rendezvous send/recv
    pending_slot: Optional[List[Optional[float]]] = None
    #: time the rank's outgoing link is busy until (injection serializes)
    link_free: float = 0.0
    #: parked on a wake list, waiting for a dependency to resolve
    blocked: bool = False
    done: bool = False


class _ReplayCore:
    """Replay state plus single-event stepping.

    :meth:`step` processes exactly one event of one rank.  It either
    advances the rank (returns True) or registers the rank on the wake
    list of whatever it is blocked on and returns False; the blocking
    paths are re-entrant, so a spuriously woken rank simply re-blocks
    without duplicating registrations.  Dependency resolution calls
    :meth:`wake`, which hands the rank back to the driving engine.
    """

    def __init__(
        self,
        trace: BurstTrace,
        net: NetworkConfig,
        phase_duration: PhaseDurationFn,
        collect_segments: bool,
    ) -> None:
        self.trace = trace
        self.net = net
        self.phase_duration = phase_duration
        self.collect_segments = collect_segments
        self.n = trace.n_ranks
        self.states = [_RankState() for _ in range(self.n)]
        self.events = [trace.ranks[r].events for r in range(self.n)]
        self.matcher = _Matcher()
        self.buses = _BusPool(net.n_buses)
        self.segments: List[TimelineSegment] = []

        # Collectives: per-kind sequence counters per rank; an
        # occurrence completes when all ranks have entered it.
        self.coll_seq = [defaultdict(int) for _ in range(self.n)]
        self.coll_enter: Dict[Tuple[str, int], Dict[int, float]] = \
            defaultdict(dict)
        self.coll_done: Dict[Tuple[str, int], float] = {}
        self.coll_waiters: Dict[Tuple[str, int], List[int]] = \
            defaultdict(list)

        self.n_steps = 0
        self.n_wakeups = 0
        self.n_messages = 0
        self.bytes_sent = 0

        #: set by the driving engine; receives ranks whose dependency
        #: resolved and who are runnable again
        self.on_wake: Callable[[int], None] = lambda rank: None

    # ------------------------------------------------------------ wake lists

    def wake(self, rank: int) -> None:
        """A dependency of ``rank`` resolved; hand it back to the engine.

        No-op unless the rank is actually parked: resolutions can fire
        while their consumer is still runnable (e.g. an irecv matched
        before its wait is reached).
        """
        st = self.states[rank]
        if st.blocked:
            st.blocked = False
            self.n_wakeups += 1
            self.on_wake(rank)

    def _resolver(self, rank: int):
        """A (slot, resolve) pair: resolving stores the completion time
        and wakes the owning rank."""
        slot: List[Optional[float]] = [None]

        def resolve(t_ns: float) -> None:
            slot[0] = t_ns
            self.wake(rank)

        return slot, resolve

    # --------------------------------------------------------- transfer cost

    def _rdv_transfer(self, send_ready_ns: float, recv_ready_ns: float,
                      transfer_ns: float, sender: int) -> Tuple[float, float]:
        """Price one rendezvous transfer: (start_ns, arrival_ns).

        The single costing path for *both* match directions: the
        transfer starts once sender and receiver are ready, the
        sender's outgoing link is idle, and a bus is granted; it then
        occupies link and bus for the wire time.  Whether the sender or
        the receiver discovers the match, the numbers are identical.
        """
        sst = self.states[sender]
        start = self.buses.acquire(
            max(send_ready_ns, recv_ready_ns, sst.link_free), transfer_ns)
        sst.link_free = start + transfer_ns
        return start, start + transfer_ns

    def _match_source(self, key: Tuple[int, int, int],
                      recv_clock: float) -> Optional[float]:
        """Match a buffered or rendezvous send against a receive posted
        at ``recv_clock``; returns the receive completion time or None.
        """
        sq = self.matcher.sends[key]
        if sq:
            arrival_ns, transfer_ns = sq.popleft()
            return max(arrival_ns, recv_clock + transfer_ns)
        dq = self.matcher.rdv_sends[key]
        if dq:
            ready_ns, transfer_ns, sender_slot, sender = dq.popleft()
            start, arrival = self._rdv_transfer(ready_ns, recv_clock,
                                                transfer_ns, sender)
            sender_slot[0] = start
            self.wake(sender)
            return arrival
        return None

    # ------------------------------------------------------------- stepping

    def step(self, rank: int) -> bool:
        """Process one event of ``rank``; False means it blocked."""
        self.n_steps += 1
        st = self.states[rank]
        ev = self.events[rank][st.cursor]
        net = self.net

        if isinstance(ev, ComputePhase):
            dur = self.phase_duration(rank, ev)
            if not 0.0 <= dur < np.inf:
                raise ValueError(
                    "phase duration must be finite and non-negative")
            if self.collect_segments and dur > 0:
                self.segments.append(TimelineSegment(
                    rank, "compute", st.clock, st.clock + dur))
            st.clock += dur
            st.compute_ns += dur
            st.cursor += 1
            return True

        call: MpiCall = ev
        if call.is_collective:
            key = (call.kind, self.coll_seq[rank][call.kind])
            if key not in self.coll_done:
                enters = self.coll_enter[key]
                if rank in enters:
                    return False  # spurious wake; completion wakes us
                enters[rank] = st.clock
                if len(enters) < self.n:
                    self.coll_waiters[key].append(rank)
                    return False  # parked until everyone arrives
                # Last arrival: price the collective, wake the others.
                cost = collective_cost_ns(call.kind, self.n,
                                          call.size_bytes, net)
                self.coll_done[key] = max(enters.values()) + cost
                for waiter in self.coll_waiters.pop(key, ()):
                    self.wake(waiter)
            t_done = self.coll_done[key]
            enter_ns = self.coll_enter[key][rank]
            if self.collect_segments:
                self.segments.append(TimelineSegment(
                    rank, "collective", enter_ns, t_done))
            st.collective_ns += t_done - enter_ns
            st.clock = t_done
            self.coll_seq[rank][call.kind] += 1
            st.cursor += 1
            return True

        if call.kind in ("send", "isend"):
            key = (rank, call.peer, call.tag)
            transfer = net.transfer_ns(call.size_bytes)
            if net.is_eager(call.size_bytes) or call.kind == "isend":
                # Buffered: the sender proceeds immediately, but its
                # outgoing link serializes transfers (Dimemas node
                # link) and the global bus pool may delay the wire
                # time.  The resulting arrival is buffered with the
                # message, so a receive matched later charges the same
                # bus and link cost as one matched now.
                start = self.buses.acquire(
                    max(st.clock + net.overhead_ns, st.link_free), transfer)
                st.link_free = start + transfer
                arrival = start + transfer
                rq = self.matcher.recvs[key]
                if rq:
                    post_ns, resolver = rq.popleft()
                    resolver(max(arrival, post_ns + transfer))
                else:
                    self.matcher.sends[key].append((arrival, transfer))
                t0 = st.clock
                st.clock += net.overhead_ns
                st.p2p_ns += net.overhead_ns
                if call.kind == "isend":
                    st.requests[call.request] = arrival
                if self.collect_segments:
                    self.segments.append(
                        TimelineSegment(rank, "p2p", t0, st.clock))
                self.n_messages += 1
                self.bytes_sent += call.size_bytes
                st.cursor += 1
                return True
            # Rendezvous blocking send: released once the transfer starts.
            if st.pending_slot is not None:
                if st.pending_slot[0] is None:
                    return False  # receiver has not matched yet
                release = max(st.pending_slot[0], st.clock)
                if self.collect_segments and release > st.clock:
                    self.segments.append(
                        TimelineSegment(rank, "p2p", st.clock, release))
                st.p2p_ns += release - st.clock
                st.clock = release
                st.pending_slot = None
                self.n_messages += 1
                self.bytes_sent += call.size_bytes
                st.cursor += 1
                return True
            rq = self.matcher.recvs[key]
            if rq:
                post_ns, resolver = rq.popleft()
                start, arrival = self._rdv_transfer(
                    st.clock + net.overhead_ns, post_ns, transfer, rank)
                resolver(arrival)
                if self.collect_segments and start > st.clock:
                    self.segments.append(
                        TimelineSegment(rank, "p2p", st.clock, start))
                st.p2p_ns += start - st.clock
                st.clock = start
                self.n_messages += 1
                self.bytes_sent += call.size_bytes
                st.cursor += 1
                return True
            # No receiver yet: advertise the rendezvous send and park.
            slot: List[Optional[float]] = [None]
            self.matcher.rdv_sends[key].append(
                (st.clock + net.overhead_ns, transfer, slot, rank))
            st.pending_slot = slot
            return False

        if call.kind in ("recv", "irecv"):
            key = (call.peer, rank, call.tag)
            if call.kind == "irecv":
                done = self._match_source(key, st.clock)
                if done is not None:
                    st.requests[call.request] = done
                else:
                    slot, resolver = self._resolver(rank)
                    self.matcher.recvs[key].append((st.clock, resolver))
                    st.requests[call.request] = slot
                st.clock += net.overhead_ns
                st.p2p_ns += net.overhead_ns
                st.cursor += 1
                return True
            # Blocking recv.
            if st.pending_slot is not None:
                if st.pending_slot[0] is None:
                    return False  # spurious wake
                done = max(st.pending_slot[0], st.clock)
                st.pending_slot = None
            else:
                maybe = self._match_source(key, st.clock)
                if maybe is None:
                    slot, resolver = self._resolver(rank)
                    self.matcher.recvs[key].append((st.clock, resolver))
                    st.pending_slot = slot
                    return False
                done = maybe
            if self.collect_segments:
                self.segments.append(
                    TimelineSegment(rank, "p2p", st.clock, done))
            st.p2p_ns += done - st.clock
            st.clock = done
            st.cursor += 1
            return True

        if call.kind == "wait":
            entry = st.requests.get(call.request)
            if entry is None:
                raise ValueError(
                    f"rank {rank}: wait on unknown request {call.request}")
            if isinstance(entry, list):  # unresolved irecv slot
                if entry[0] is None:
                    return False  # the resolver wakes us on match
                done = max(entry[0], st.clock)
            else:
                done = max(entry, st.clock)
            if self.collect_segments and done > st.clock:
                self.segments.append(
                    TimelineSegment(rank, "wait", st.clock, done))
            st.p2p_ns += done - st.clock
            st.clock = done
            del st.requests[call.request]
            st.cursor += 1
            return True

        raise ValueError(f"unhandled MPI call kind {call.kind!r}")

    # ------------------------------------------------------------- finishing

    def deadlock_error(self) -> RuntimeError:
        """Diagnostic naming the stuck ranks and their pending events."""
        stuck = [r for r in range(self.n) if not self.states[r].done]
        details = []
        for r in stuck[:8]:
            ev = self.events[r][self.states[r].cursor]
            if isinstance(ev, MpiCall):
                desc = ev.kind
                if ev.peer is not None:
                    desc += f"(peer={ev.peer})"
                elif ev.request is not None:
                    desc += f"(request={ev.request})"
            else:
                desc = type(ev).__name__
            details.append(f"rank {r}@event{self.states[r].cursor}:{desc}")
        return RuntimeError(
            f"replay deadlock; {len(stuck)} rank(s) stuck: {details}")

    def result(self) -> ReplayResult:
        states = self.states
        return ReplayResult(
            total_ns=max(st.clock for st in states),
            compute_ns=np.array([st.compute_ns for st in states]),
            p2p_ns=np.array([st.p2p_ns for st in states]),
            collective_ns=np.array([st.collective_ns for st in states]),
            n_messages=self.n_messages,
            bytes_sent=self.bytes_sent,
            segments=tuple(self.segments) if self.collect_segments else None,
        )


# ------------------------------------------------------------------ engine

def _run_event(core: _ReplayCore, order: Sequence[int]) -> None:
    """Reactive engine: ready-heap keyed by (clock, rank) + wake lists.

    Each pop advances one rank for as long as it stays the globally
    earliest runnable one; a rank that blocks is parked and re-enters
    the heap exactly once, via :meth:`_ReplayCore.wake`, when its
    dependency resolves.
    """
    states = core.states
    events = core.events
    heap: List[Tuple[float, int]] = []
    for r in order:
        if events[r]:
            heappush(heap, (states[r].clock, r))
        else:
            states[r].done = True

    core.on_wake = lambda rank: heappush(heap, (states[rank].clock, rank))

    step = core.step
    while heap:
        _, r = heappop(heap)
        st = states[r]
        n_ev = len(events[r])
        while True:
            if st.cursor >= n_ev:
                st.done = True
                break
            if not step(r):
                st.blocked = True
                break
            if heap and heap[0] < (st.clock, r):
                heappush(heap, (st.clock, r))
                break

    if any(not st.done for st in states):
        raise core.deadlock_error()


def replay(
    trace: BurstTrace,
    net: NetworkConfig,
    phase_duration: PhaseDurationFn,
    collect_segments: bool = False,
    rank_order: Optional[Sequence[int]] = None,
) -> ReplayResult:
    """Replay ``trace`` through the network model.

    ``phase_duration(rank, phase)`` supplies each compute phase's
    duration; pass a burst-mode scheduler hook for hardware-agnostic
    runs or detailed timings for integrated runs.

    ``rank_order`` permutes the order ranks are seeded/scanned in — it
    provably cannot change the outcome (ranks always advance in global
    virtual-time order) and exists so property tests can assert that.

    Counters (``replay.events`` / ``replay.wakeups`` /
    ``replay.messages`` / ``replay.bus_waits``) and a ``replay.run``
    span are reported through :mod:`repro.obs`.
    """
    order: Sequence[int] = (range(trace.n_ranks) if rank_order is None
                            else list(rank_order))
    if rank_order is not None and sorted(order) != list(range(trace.n_ranks)):
        raise ValueError("rank_order must be a permutation of all ranks")

    core = _ReplayCore(trace, net, phase_duration, collect_segments)
    obs = get_metrics()
    with obs.span("replay.run"):
        _run_event(core, order)
    obs.inc("replay.events", core.n_steps)
    obs.inc("replay.wakeups", core.n_wakeups)
    obs.inc("replay.messages", core.n_messages)
    if core.buses.n_waits:
        obs.inc("replay.bus_waits", core.buses.n_waits)
    return core.result()
