"""Config-vectorized MPI trace replay: one event-engine pass per batch.

The scalar replay (:mod:`repro.network.replay`) walks a trace once per
node configuration, even though within one design-space batch the trace
— and therefore almost all of the replay's *control flow* — is shared:
the network is fixed across the space (as in MUSA, where the Dimemas
parameters never change), so message sizes, eager/rendezvous protocol
choices, matching, collective membership and blocking structure are all
configuration-invariant.  Only the compute-phase durations differ per
configuration, which perturbs the virtual clocks but usually not the
global ``(clock, rank)`` step order that the scalar engine follows.

This module exploits that with three drivers, all carrying a NumPy
*configuration axis* through every quantity the scalar ``_ReplayCore``
keeps as a float — rank clocks, outgoing-link ``link_free`` times,
bus-pool free slots, buffered eager arrivals, rendezvous release slots,
request completion times, collective entry times:

**Array driver** (:func:`_run_array_tape`).  On the order-free path
(see below) the event order is not just irrelevant — the whole matching
is *structural*, so :func:`_build_tape` resolves it once in pure Python
(no floats), levels the resulting value DAG by dependency depth, and
the driver executes it level by level with one NumPy pass per
(level, kind) group: all of a level's eager sends price in one
vectorized expression over (events-in-level x configs), and likewise
for receives, rendezvous handshakes, waits and collectives.  Full-rank
groups (the bulk-synchronous common case) run as ``out=``-pipelined
in-place kernels over two reusable workspace matrices, so a level costs
stream passes over the state, not allocator round-trips for chained
temporaries — at paper scale (864 configs x 256 ranks) the temporaries
were the whole difference between losing and decisively beating the
worklist driver.  Every float64 operation along a column stays the
identical scalar operation — see the tape section below for why dropped
clamps are exact no-ops.  Any structural snag (would-deadlock, unknown
wait request, ragged collective) falls back to the worklist driver.

**Worklist driver** (:func:`_run_shared`).  The scalar replay is
*confluent* whenever no shared resource couples ranks: every message
cost is computed from endpoint-local dataflow values (the sender's
clock and ``link_free`` when *it* reaches the send, the receiver's
clock when *it* posts the receive), collective completion is a
commutative max over entry times, and FIFO matching per
``(src, dst, tag)`` pairs the k-th send with the k-th receive under
any interleaving.  The global ``(clock, rank)`` step order exists
solely to serialize the finite-bus pool (see
:mod:`repro.network.replay`'s docstring) — plus one structural corner:
a key carrying both eager-buffered and rendezvous sends, where
matching prefers whichever eager send is outstanding at discovery
time.  :func:`_order_free` checks both conditions (``n_buses == 0``
and protocol-pure keys, one O(events) scan); when they hold — they do
for the paper's MareNostrum4-like network, which has an unlimited bus
pool — *any* structurally valid order yields, per configuration, the
bit-exact scalar result, so one pass with a trivial run-until-blocked
worklist steps all configurations at once with **zero** divergence
checking.  It survives as the fallback for traces whose tape build
bails out.

**Fork-on-divergence lockstep driver** (:func:`_run_lockstep`).  When
the bus pool is finite (or a key mixes protocols), per-configuration
order *does* matter.  The next rank to step is then chosen exactly like
the scalar engine chooses it, per configuration: a dense (rank, config)
key matrix holds each rank's clock column (``+inf`` when blocked or
done) and one ``argmin(axis=0)`` per step yields every column's choice
— NumPy's first-minimum tie-break is the scalar ``(clock, rank)`` tuple
order.
Wherever every configuration in a lockstep group agrees on the choice,
one step serves the whole group.  Where they disagree (a per-config
compute duration flipped the bus-grant order), the group *forks*: its
columns are partitioned by their chosen rank and the full core state —
clocks, queues, bus pool, collective bookkeeping — is column-sliced
into one independent child core per partition, each of which continues
from the divergence point executing exactly its columns' scalar step
sequence.  Forking replaces the old modal-vote *peel* (re-replaying
disagreeing columns from scratch on the scalar engine, which collapsed
to 29/32 scalar re-runs on bus-contended batches); columns now leave
the vectorized path only on a genuine structural deadlock, where the
scalar engine owns the diagnostic.

Either way, every arithmetic operation along a column is the same
IEEE-754 float64 operation the scalar core performs (element-wise
instead of one at a time), so results are **bit-identical** to
per-config scalar replay — deadlocked columns trivially so, because
the scalar engine produces them.  The step outcome itself (advance vs
block, match vs buffer, collective complete vs park) depends only on
*structural* state — queue occupancy, request bookkeeping, collective
membership — which is identical across columns that share a step
history; only the *selection* of which rank steps next reads the
clocks, and only when a shared resource makes that order observable.

Counters: ``replay.batch.array_events`` (config-events priced by the
array driver), ``replay.batch.worklist_events`` (config-events served
by the event-at-a-time worklist pass), ``replay.batch.lockstep_events``
(config-events served by lockstep groups), ``replay.batch.driver.*``
(``array`` / ``worklist`` / ``lockstep`` — which driver a
:func:`replay_batch` call actually ran, so a silent tape bail-out can
never masquerade as an array-driver run), ``replay.batch.array_fallbacks``
(order-free batches whose tape could not be built),
``replay.batch.forked_groups`` (child groups created at divergence
points), ``replay.batch.peeled_configs`` (columns finished on the
scalar engine — deadlock diagnostics only), plus the scalar-equivalent
``replay.events`` / ``replay.messages`` / ``replay.bus_waits`` totals.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics
from ..trace.burst import BurstTrace
from ..trace.events import ComputePhase, MpiCall
from ..util import LruDict
from .collectives import collective_cost_ns
from .model import NetworkConfig
from .replay import ReplayResult, replay

__all__ = ["replay_batch", "BatchPhaseDurationFn"]

#: Maps (rank, phase) to a per-configuration duration column (ns).
BatchPhaseDurationFn = Callable[[int, ComputePhase], np.ndarray]


class _BatchBusPool:
    """Column-wise Dimemas finite-bus pool.

    Semantically the scalar pool is a multiset of per-bus free times
    with pop-min/push; which physical slot serves a transfer is
    unobservable, so an argmin over a dense array reproduces the heap's
    results exactly, column by column.
    """

    def __init__(self, n_buses: int, n_cols: int) -> None:
        self.n_buses = n_buses
        self.n_cols = n_cols
        self.n_waits = np.zeros(n_cols, dtype=np.int64)
        if n_buses > 0:
            self._free = np.zeros((n_buses, n_cols))
            self._cols = np.arange(n_cols)

    def acquire(self, ready: np.ndarray, duration_ns: float) -> np.ndarray:
        if self.n_buses <= 0:
            return ready
        idx = np.argmin(self._free, axis=0)
        earliest = self._free[idx, self._cols]
        start = np.maximum(ready, earliest)
        self.n_waits += start > ready
        self._free[idx, self._cols] = start + duration_ns
        return start

    def fork(self, idx: np.ndarray) -> "_BatchBusPool":
        """Column-slice of the pool (``_free`` is mutated in place, so
        the fancy-index copy is load-bearing, not defensive)."""
        new = _BatchBusPool.__new__(_BatchBusPool)
        new.n_buses = self.n_buses
        new.n_cols = int(idx.size)
        new.n_waits = self.n_waits[idx]
        if self.n_buses > 0:
            new._free = self._free[:, idx]
            new._cols = np.arange(new.n_cols)
        return new


class _ColState:
    """Per-rank state with every float replaced by a config column."""

    __slots__ = ("clock", "cursor", "compute_ns", "p2p_ns", "collective_ns",
                 "requests", "pending_slot", "link_free", "blocked", "done")

    def __init__(self, n_cols: int) -> None:
        self.clock = np.zeros(n_cols)
        self.cursor = 0
        self.compute_ns = np.zeros(n_cols)
        self.p2p_ns = np.zeros(n_cols)
        self.collective_ns = np.zeros(n_cols)
        self.requests: Dict[int, object] = {}
        self.pending_slot: Optional[List[Optional[np.ndarray]]] = None
        self.link_free = np.zeros(n_cols)
        self.blocked = False
        self.done = False


class _LockstepCore:
    """The scalar ``_ReplayCore.step`` transliterated onto columns.

    Every float operation becomes the identical element-wise float64
    operation; every structural decision (queue occupancy, protocol
    choice, collective membership) is taken once for the whole group.
    Arrays are never mutated in place once stored, so buffered values
    (eager arrivals, release slots, request completions) stay frozen at
    their creation-time columns exactly like the scalar floats they
    replace.

    All cross-references between queues and rank state are plain data —
    a pending receive is ``(post_clock, slot, rank)`` where ``slot`` is
    a one-element list shared with the blocked rank's ``requests`` /
    ``pending_slot`` — never a closure, so :func:`_fork_core` can
    column-slice a whole core (preserving slot sharing via an identity
    memo) when a lockstep group diverges.

    ``col_idx`` maps this core's local columns to absolute batch
    columns; the root core covers the whole batch (``None``).  Forked
    cores always index the *original* ``phase_duration`` output with
    their absolute ``col_idx``, so repeated forks never stack slices.
    """

    def __init__(self, trace: BurstTrace, net: NetworkConfig,
                 phase_duration: BatchPhaseDurationFn, n_cols: int,
                 col_idx: Optional[np.ndarray] = None) -> None:
        self.trace = trace
        self.net = net
        self.phase_duration = phase_duration
        self.n_cols = n_cols
        self.col_idx = col_idx
        self.n = trace.n_ranks
        self.states = [_ColState(n_cols) for _ in range(self.n)]
        self.events = [trace.ranks[r].events for r in range(self.n)]
        # FIFO queues per (src, dst, tag), as in the scalar _Matcher.
        self.sends = defaultdict(list)
        self.recvs = defaultdict(list)
        self.rdv_sends = defaultdict(list)
        self.buses = _BatchBusPool(net.n_buses, n_cols)

        self.coll_seq = [defaultdict(int) for _ in range(self.n)]
        self.coll_enter: Dict[Tuple[str, int], Dict[int, np.ndarray]] = \
            defaultdict(dict)
        self.coll_done: Dict[Tuple[str, int], np.ndarray] = {}
        self.coll_waiters: Dict[Tuple[str, int], List[int]] = \
            defaultdict(list)

        self.n_steps = 0
        self.n_wakeups = 0
        self.n_messages = 0
        self.bytes_sent = 0
        self.n_unfinished = self.n
        self.lockstep_events = 0
        self.worklist_events = 0

        #: set by the driver; receives ranks whose dependency resolved
        self.on_wake: Callable[[int], None] = lambda rank: None

    # ------------------------------------------------------------ wake lists

    def wake(self, rank: int) -> None:
        st = self.states[rank]
        if st.blocked:
            st.blocked = False
            self.n_wakeups += 1
            self.on_wake(rank)

    # --------------------------------------------------------- transfer cost

    def _rdv_transfer(self, send_ready, recv_ready, transfer_ns: float,
                      sender: int) -> Tuple[np.ndarray, np.ndarray]:
        sst = self.states[sender]
        start = self.buses.acquire(
            np.maximum(np.maximum(send_ready, recv_ready), sst.link_free),
            transfer_ns)
        sst.link_free = start + transfer_ns
        return start, start + transfer_ns

    def _match_source(self, key, recv_clock) -> Optional[np.ndarray]:
        sq = self.sends[key]
        if sq:
            arrival, transfer_ns = sq.pop(0)
            return np.maximum(arrival, recv_clock + transfer_ns)
        dq = self.rdv_sends[key]
        if dq:
            ready, transfer_ns, sender_slot, sender = dq.pop(0)
            start, arrival = self._rdv_transfer(ready, recv_clock,
                                                transfer_ns, sender)
            sender_slot[0] = start
            self.wake(sender)
            return arrival
        return None

    # ------------------------------------------------------------- stepping

    def step(self, rank: int) -> bool:
        """One event of ``rank`` for the whole group; False = blocked.

        Mirrors ``_ReplayCore.step`` branch for branch; the tree leaf
        for ``rank`` is refreshed by the engine loop, not here.
        """
        self.n_steps += 1
        st = self.states[rank]
        ev = self.events[rank][st.cursor]
        net = self.net

        if isinstance(ev, ComputePhase):
            dur = np.asarray(self.phase_duration(rank, ev), dtype=np.float64)
            if self.col_idx is not None and dur.ndim:
                dur = dur[self.col_idx]
            if (dur < 0).any():
                raise ValueError("phase duration must be non-negative")
            st.clock = st.clock + dur
            st.compute_ns = st.compute_ns + dur
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
                    return False
                cost = collective_cost_ns(call.kind, self.n,
                                          call.size_bytes, net)
                latest = None
                for col in enters.values():
                    latest = col if latest is None else np.maximum(latest, col)
                self.coll_done[key] = latest + cost
                for waiter in self.coll_waiters.pop(key, ()):
                    self.wake(waiter)
            t_done = self.coll_done[key]
            enter = self.coll_enter[key][rank]
            st.collective_ns = st.collective_ns + (t_done - enter)
            st.clock = t_done
            self.coll_seq[rank][call.kind] += 1
            st.cursor += 1
            return True

        if call.kind in ("send", "isend"):
            key = (rank, call.peer, call.tag)
            transfer = net.transfer_ns(call.size_bytes)
            if net.is_eager(call.size_bytes) or call.kind == "isend":
                start = self.buses.acquire(
                    np.maximum(st.clock + net.overhead_ns, st.link_free),
                    transfer)
                st.link_free = start + transfer
                arrival = start + transfer
                rq = self.recvs[key]
                if rq:
                    post, slot, waiter = rq.pop(0)
                    slot[0] = np.maximum(arrival, post + transfer)
                    self.wake(waiter)
                else:
                    self.sends[key].append((arrival, transfer))
                st.clock = st.clock + net.overhead_ns
                st.p2p_ns = st.p2p_ns + net.overhead_ns
                if call.kind == "isend":
                    st.requests[call.request] = arrival
                self.n_messages += 1
                self.bytes_sent += call.size_bytes
                st.cursor += 1
                return True
            if st.pending_slot is not None:
                if st.pending_slot[0] is None:
                    return False
                release = np.maximum(st.pending_slot[0], st.clock)
                st.p2p_ns = st.p2p_ns + (release - st.clock)
                st.clock = release
                st.pending_slot = None
                self.n_messages += 1
                self.bytes_sent += call.size_bytes
                st.cursor += 1
                return True
            rq = self.recvs[key]
            if rq:
                post, slot, waiter = rq.pop(0)
                start, arrival = self._rdv_transfer(
                    st.clock + net.overhead_ns, post, transfer, rank)
                slot[0] = arrival
                self.wake(waiter)
                st.p2p_ns = st.p2p_ns + (start - st.clock)
                st.clock = start
                self.n_messages += 1
                self.bytes_sent += call.size_bytes
                st.cursor += 1
                return True
            slot: List[Optional[np.ndarray]] = [None]
            self.rdv_sends[key].append(
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
                    slot = [None]
                    self.recvs[key].append((st.clock, slot, rank))
                    st.requests[call.request] = slot
                st.clock = st.clock + net.overhead_ns
                st.p2p_ns = st.p2p_ns + net.overhead_ns
                st.cursor += 1
                return True
            if st.pending_slot is not None:
                if st.pending_slot[0] is None:
                    return False
                done = np.maximum(st.pending_slot[0], st.clock)
                st.pending_slot = None
            else:
                maybe = self._match_source(key, st.clock)
                if maybe is None:
                    slot = [None]
                    self.recvs[key].append((st.clock, slot, rank))
                    st.pending_slot = slot
                    return False
                done = maybe
            st.p2p_ns = st.p2p_ns + (done - st.clock)
            st.clock = done
            st.cursor += 1
            return True

        if call.kind == "wait":
            entry = st.requests.get(call.request)
            if entry is None:
                raise ValueError(
                    f"rank {rank}: wait on unknown request {call.request}")
            if isinstance(entry, list):
                if entry[0] is None:
                    return False
                done = np.maximum(entry[0], st.clock)
            else:
                done = np.maximum(entry, st.clock)
            st.p2p_ns = st.p2p_ns + (done - st.clock)
            st.clock = done
            del st.requests[call.request]
            st.cursor += 1
            return True

        raise ValueError(f"unhandled MPI call kind {call.kind!r}")


def _fork_core(core: _LockstepCore, idx: np.ndarray) -> _LockstepCore:
    """Column-slice ``core`` into an independent child covering ``idx``.

    Called at a divergence point, before the disputed step runs, so
    structural state (cursors, queue membership, collective rosters) is
    shared by every column and copies as-is; only the float columns are
    sliced.  One-element ``slot`` lists are shared between a queue
    entry and the blocked rank's ``requests`` / ``pending_slot`` — the
    identity memo preserves exactly that sharing in the child, so a
    later match still wakes the right rank.  The parent is discarded
    after forking (its children partition its columns), so buffered
    arrays can be sliced without copy concerns; only the bus pool's
    ``_free`` matrix is mutated in place, and fancy indexing already
    copies it.
    """
    new = _LockstepCore.__new__(_LockstepCore)
    new.trace = core.trace
    new.net = core.net
    new.phase_duration = core.phase_duration
    new.n_cols = int(idx.size)
    new.col_idx = idx if core.col_idx is None else core.col_idx[idx]
    new.n = core.n
    new.events = core.events

    memo: Dict[int, List[Optional[np.ndarray]]] = {}

    def fork_slot(slot):
        forked = memo.get(id(slot))
        if forked is None:
            forked = [None if slot[0] is None else slot[0][idx]]
            memo[id(slot)] = forked
        return forked

    states = []
    for st in core.states:
        ns = _ColState.__new__(_ColState)
        ns.clock = st.clock[idx]
        ns.cursor = st.cursor
        ns.compute_ns = st.compute_ns[idx]
        ns.p2p_ns = st.p2p_ns[idx]
        ns.collective_ns = st.collective_ns[idx]
        ns.requests = {req: (fork_slot(e) if type(e) is list else e[idx])
                       for req, e in st.requests.items()}
        ns.pending_slot = (None if st.pending_slot is None
                           else fork_slot(st.pending_slot))
        ns.link_free = st.link_free[idx]
        ns.blocked = st.blocked
        ns.done = st.done
        states.append(ns)
    new.states = states

    new.sends = defaultdict(list, {
        key: [(arrival[idx], t) for arrival, t in q]
        for key, q in core.sends.items() if q})
    new.recvs = defaultdict(list, {
        key: [(post[idx], fork_slot(slot), waiter)
              for post, slot, waiter in q]
        for key, q in core.recvs.items() if q})
    new.rdv_sends = defaultdict(list, {
        key: [(ready[idx], t, fork_slot(slot), sender)
              for ready, t, slot, sender in q]
        for key, q in core.rdv_sends.items() if q})
    new.buses = core.buses.fork(idx)

    new.coll_seq = [defaultdict(int, d) for d in core.coll_seq]
    new.coll_enter = defaultdict(dict, {
        ckey: {r: col[idx] for r, col in enters.items()}
        for ckey, enters in core.coll_enter.items()})
    new.coll_done = {ckey: col[idx] for ckey, col in core.coll_done.items()}
    new.coll_waiters = defaultdict(list, {
        ckey: list(w) for ckey, w in core.coll_waiters.items() if w})

    new.n_steps = core.n_steps
    new.n_wakeups = core.n_wakeups
    new.n_messages = core.n_messages
    new.bytes_sent = core.bytes_sent
    new.n_unfinished = core.n_unfinished
    new.lockstep_events = core.lockstep_events
    new.worklist_events = core.worklist_events
    new.on_wake = lambda rank: None
    return new


def _order_free(trace: BurstTrace, net: NetworkConfig) -> bool:
    """True when the replay's values cannot depend on step order.

    Requires an unlimited bus pool (``n_buses == 0``) — the one shared
    resource whose grant order is observable — and *protocol-pure*
    point-to-point keys: no ``(src, dst, tag)`` carries both
    eager/isend-buffered and rendezvous sends, because
    ``_match_source`` prefers a buffered send over an advertised
    rendezvous one, making mixed-key pairing depend on what is
    outstanding at discovery time.
    """
    if net.n_buses > 0:
        return False
    classes: Dict[Tuple[int, int, int], bool] = {}
    for rt in trace.ranks:
        for ev in rt.events:
            if isinstance(ev, MpiCall) and ev.kind in ("send", "isend"):
                key = (rt.rank, ev.peer, ev.tag)
                eager = ev.kind == "isend" or net.is_eager(ev.size_bytes)
                if classes.setdefault(key, eager) != eager:
                    return False
    return True


# --------------------------------------------------------------------- tape
#
# On the order-free path the entire replay is *structural*: with an
# unlimited bus pool and protocol-pure keys, which send matches which
# receive (k-th send of a (src, dst, tag) key pairs with its k-th
# receive — one rank produces each side, in program order), which events
# a collective joins (all ranks, by per-rank (kind, seq)), and which
# request a wait consumes are all fixed by the trace alone.  The float
# values then form a DAG: each event's output depends on the same rank's
# previous event plus at most one cross-rank value (a message arrival, a
# receive-post clock, or a collective's entry set).  _build_tape walks
# the trace once (pure Python, no floats), resolves the matching, and
# levels the DAG by depth; _run_array_tape then executes it level by
# level with one NumPy pass per (level, kind) group — the same float64
# ops the scalar ``step`` performs, (events-in-level x configs) at a
# time — instead of ~one Python ``step()`` call per event.  Because an
# event's depth strictly exceeds its same-rank predecessor's, each rank
# appears at most once per level, so the fancy-index scatters never
# collide.  Any structural snag (unmatched receive, rendezvous deadlock
# cycle, unknown wait request, ragged collective, non-uniform collective
# payload) falls back to the worklist driver, which reproduces the
# scalar diagnostics.

(_K_COMPUTE, _K_EAGER_SEND, _K_RECV_EAGER, _K_IRECV_POST, _K_RDV_SEND,
 _K_RDV_POST, _K_RDV_COMPLETE, _K_WAIT_ARR, _K_WAIT_EAGER,
 _K_COLL) = range(10)


class _Tape:
    #: ``n_msgs`` holds the (arrival, post) buffer row counts; ``ws``
    #: caches the driver's workspace matrices between runs (the big
    #: slot buffers are tens of MB — repaying their first-touch page
    #: faults on every call costs more than the arithmetic).
    __slots__ = ("groups", "n_msgs", "n_events", "n_messages",
                 "bytes_sent", "ws")

    def __init__(self, groups, n_msgs, n_events, n_messages, bytes_sent):
        self.groups = groups
        self.n_msgs = n_msgs
        self.n_events = n_events
        self.n_messages = n_messages
        self.bytes_sent = bytes_sent
        self.ws = None


def _build_tape(trace: BurstTrace, net: NetworkConfig) -> Optional[_Tape]:
    """Structural pre-pass: match, level, and group the whole replay.

    Returns ``None`` when the trace cannot be fully resolved
    structurally (it would deadlock, wait on an unknown request, or
    price a collective whose per-rank payloads disagree) — the caller
    then falls back to the worklist driver / scalar engine, which owns
    those diagnostics.
    """
    n = trace.n_ranks
    events = [trace.ranks[r].events for r in range(n)]
    n_events = sum(len(e) for e in events)

    # Pass 1: per-key protocol (guaranteed pure by _order_free).
    key_eager: Dict[Tuple[int, int, int], bool] = {}
    for r in range(n):
        for ev in events[r]:
            if isinstance(ev, MpiCall) and ev.kind in ("send", "isend"):
                key = (r, ev.peer, ev.tag)
                key_eager[key] = (ev.kind == "isend"
                                  or net.is_eager(ev.size_bytes))

    # Message registry: FIFO slot i of a key pairs send i with recv i.
    msg_transfer: List[Optional[float]] = []
    msg_arrival: List[Optional[int]] = []   # producer node (send)
    msg_post: List[Optional[int]] = []      # receive-post node
    key_slots: Dict[Tuple[int, int, int], List[int]] = defaultdict(list)

    def msg_slot(key, i: int) -> int:
        slots = key_slots[key]
        while len(slots) <= i:
            slots.append(len(msg_transfer))
            msg_transfer.append(None)
            msg_arrival.append(None)
            msg_post.append(None)
        return slots[i]

    # Nodes as parallel lists; dependencies as one flat edge list.  The
    # walk below runs once per trace event — the structural hot loop —
    # hence the inlined node construction via bound ``append``s.
    kinds: List[int] = []
    ranks: List[int] = []
    nmsg: List[int] = []
    payloads: List[object] = []
    e_src: List[int] = []
    e_dst: List[int] = []
    k_ap, r_ap, m_ap, p_ap = (kinds.append, ranks.append, nmsg.append,
                              payloads.append)
    es_ap, ed_ap = e_src.append, e_dst.append

    send_i: Dict[Tuple, int] = defaultdict(int)
    recv_i: Dict[Tuple, int] = defaultdict(int)
    colls: Dict[Tuple[str, int], int] = {}
    coll_members: Dict[int, int] = {}
    n_messages = 0
    bytes_sent = 0

    for r in range(n):
        coll_seq: Dict[str, int] = defaultdict(int)
        requests: Dict[int, Tuple[str, int]] = {}
        prev = -1
        for ev in events[r]:
            if isinstance(ev, ComputePhase):
                nid = len(kinds)
                k_ap(_K_COMPUTE), r_ap(r), m_ap(-1), p_ap(ev)
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
                continue
            call: MpiCall = ev
            if call.is_collective:
                ckey = (call.kind, coll_seq[call.kind])
                coll_seq[call.kind] += 1
                nid = colls.get(ckey, -1)
                if nid < 0:
                    nid = len(kinds)
                    k_ap(_K_COLL), r_ap(-1), m_ap(-1)
                    p_ap((call.kind, call.size_bytes))
                    colls[ckey] = nid
                    coll_members[nid] = 0
                elif payloads[nid] != (call.kind, call.size_bytes):
                    return None  # ragged payload: completion order decides
                coll_members[nid] += 1
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
            elif call.kind in ("send", "isend"):
                key = (r, call.peer, call.tag)
                mid = msg_slot(key, send_i[key])
                send_i[key] += 1
                msg_transfer[mid] = net.transfer_ns(call.size_bytes)
                eager = call.kind == "isend" or net.is_eager(call.size_bytes)
                nid = len(kinds)
                k_ap(_K_EAGER_SEND if eager else _K_RDV_SEND)
                r_ap(r), m_ap(mid), p_ap(None)
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
                msg_arrival[mid] = nid
                if call.kind == "isend":
                    requests[call.request] = ("s", mid)
                n_messages += 1
                bytes_sent += call.size_bytes
            elif call.kind == "recv":
                key = (call.peer, r, call.tag)
                mid = msg_slot(key, recv_i[key])
                recv_i[key] += 1
                eager = key_eager.get(key)
                if eager is None:
                    return None  # no sender ever: structural deadlock
                nid = len(kinds)
                if eager:
                    k_ap(_K_RECV_EAGER), r_ap(r), m_ap(mid), p_ap(None)
                    if prev >= 0:
                        es_ap(prev), ed_ap(nid)
                    prev = nid
                else:
                    k_ap(_K_RDV_POST), r_ap(r), m_ap(mid), p_ap(None)
                    if prev >= 0:
                        es_ap(prev), ed_ap(nid)
                    msg_post[mid] = nid
                    k_ap(_K_RDV_COMPLETE), r_ap(r), m_ap(mid), p_ap(None)
                    es_ap(nid), ed_ap(nid + 1)
                    prev = nid + 1
            elif call.kind == "irecv":
                key = (call.peer, r, call.tag)
                mid = msg_slot(key, recv_i[key])
                recv_i[key] += 1
                eager = key_eager.get(key)
                nid = len(kinds)
                k_ap(_K_IRECV_POST), r_ap(r), m_ap(mid), p_ap(None)
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
                msg_post[mid] = nid
                requests[call.request] = (
                    "x" if eager is None else ("e" if eager else "r"), mid)
            elif call.kind == "wait":
                entry = requests.pop(call.request, None)
                if entry is None or entry[0] == "x":
                    return None  # unknown request / unmatched irecv
                tag, mid = entry
                nid = len(kinds)
                k_ap(_K_WAIT_EAGER if tag == "e" else _K_WAIT_ARR)
                r_ap(r), m_ap(mid), p_ap(None)
                if prev >= 0:
                    es_ap(prev), ed_ap(nid)
                prev = nid
            else:
                return None  # unhandled kind: scalar engine raises

    for nid, count in coll_members.items():
        if count != n:
            return None  # some rank never joins: structural deadlock

    # Cross-rank value edges, resolved now that every producer exists.
    for nid, kind in enumerate(kinds):
        if kind in (_K_RECV_EAGER, _K_RDV_COMPLETE, _K_WAIT_ARR,
                    _K_WAIT_EAGER):
            mid = nmsg[nid]
            arr = msg_arrival[mid]
            if arr is None:
                return None  # consumes a message nobody sends
            es_ap(arr), ed_ap(nid)
            if kind == _K_WAIT_EAGER:
                es_ap(msg_post[mid]), ed_ap(nid)
        elif kind == _K_RDV_SEND:
            post = msg_post[nmsg[nid]]
            if post is None:
                return None  # rendezvous sender blocks forever
            es_ap(post), ed_ap(nid)

    # Level the DAG (depth = 1 + max over predecessors) with Kahn waves
    # vectorized over the flat edge list: each wave expands the whole
    # zero-indegree frontier at once.  Total work is O(edges) spread
    # over ~levels vector calls instead of O(edges) dict/list hops.
    n_nodes = len(kinds)
    depth = np.zeros(n_nodes, dtype=np.int64)
    if e_src:
        src = np.asarray(e_src, dtype=np.int64)
        dst = np.asarray(e_dst, dtype=np.int64)
        e_order = np.argsort(src, kind="stable")
        dst_s = dst[e_order]
        starts = np.searchsorted(src, np.arange(n_nodes + 1),
                                 sorter=e_order)
        indeg = np.bincount(dst, minlength=n_nodes)
        frontier = np.flatnonzero(indeg == 0)
        processed = 0
        while frontier.size:
            processed += int(frontier.size)
            counts = starts[frontier + 1] - starts[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            cum = np.cumsum(counts)
            offset = np.arange(total, dtype=np.int64) - np.repeat(
                cum - counts, counts)
            e_idx = np.repeat(starts[frontier], counts) + offset
            ds = dst_s[e_idx]
            np.maximum.at(depth, ds, np.repeat(depth[frontier] + 1, counts))
            np.subtract.at(indeg, ds, 1)
            cand = np.unique(ds)
            frontier = cand[indeg[cand] == 0]
        if processed != n_nodes:
            return None  # dependency cycle: a genuine deadlock

    # Group by (depth, kind); groups are rank-disjoint within a level.
    # Node ids are assigned rank-major and the sort is stable, so
    # members sort by rank within a group; when a group covers every
    # rank, the index array is the identity permutation and a full
    # slice serves instead — the driver then runs its in-place
    # whole-matrix kernels (the common case: bulk-synchronous apps keep
    # all ranks at the same depth).
    kind_arr = np.asarray(kinds, dtype=np.int64)
    rank_arr = np.asarray(ranks, dtype=np.int64)
    nmsg_arr = np.asarray(nmsg, dtype=np.int64)
    tr_arr = np.asarray([np.nan if t is None else t for t in msg_transfer],
                        dtype=np.float64)
    order = np.lexsort((kind_arr, depth))
    d_s = depth[order]
    k_s = kind_arr[order]
    if n_nodes:
        brk = np.flatnonzero((np.diff(d_s) != 0) | (np.diff(k_s) != 0))
        bounds = np.concatenate(([0], brk + 1, [n_nodes]))
    else:
        bounds = np.zeros(1, dtype=np.int64)
    raw = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        raw.append((int(k_s[a]), order[a:b]))

    # Reader-ordered buffer layout.  An arrival value can have up to
    # two readers — the receiver-side consumer (recv / wait / rdv
    # completion) and, for a waited isend, the sender's own wait; a
    # post value has at most one (the matching wait or rendezvous
    # send).  Each (slot, reader) pair gets its *own* buffer slot,
    # assigned walking the groups in execution order, so every reader
    # group's slots form one contiguous ascending run: the driver
    # reads plain slices — views it may finish in place and adopt as
    # the next ``clock``, the slot being dead afterwards — instead of
    # fancy-index gathers, and only producers pay a scatter (twice,
    # for the doubly-read slots).  At paper scale the reader gathers
    # were ~40% of the driver's memory traffic.  Never-read slots
    # (unreceived sends, unwaited irecvs) get the leftover ids past
    # every reader's run, keeping producer scatters unconditional.
    n_msgs = len(msg_transfer)
    arr_map1 = np.full(n_msgs, -1, dtype=np.int64)
    arr_map2 = np.full(n_msgs, -1, dtype=np.int64)
    post_map = np.full(n_msgs, -1, dtype=np.int64)
    n_arr = n_post = 0
    arr_blocks: List[Optional[slice]] = []
    post_blocks: List[Optional[slice]] = []
    for k, members in raw:
        ablk = pblk = None
        if k != _K_COLL:
            mm = nmsg_arr[members]
            if k in (_K_RECV_EAGER, _K_RDV_COMPLETE, _K_WAIT_ARR,
                     _K_WAIT_EAGER):
                ids = np.arange(n_arr, n_arr + mm.size)
                ablk = slice(n_arr, n_arr + mm.size)
                n_arr += mm.size
                first = arr_map1[mm] < 0
                arr_map1[mm[first]] = ids[first]
                second = mm[~first]
                if (arr_map2[second] >= 0).any():
                    return None  # >2 readers: bail rather than corrupt
                arr_map2[second] = ids[~first]
            if k in (_K_WAIT_EAGER, _K_RDV_SEND):
                if (post_map[mm] >= 0).any():
                    return None  # post read twice: bail
                post_map[mm] = np.arange(n_post, n_post + mm.size)
                pblk = slice(n_post, n_post + mm.size)
                n_post += mm.size
        arr_blocks.append(ablk)
        post_blocks.append(pblk)
    for mp, cnt in ((arr_map1, n_arr), (post_map, n_post)):
        left = np.flatnonzero(mp < 0)
        mp[left] = np.arange(cnt, cnt + left.size)
    arr_size = n_arr + int((arr_map1 >= n_arr).sum())
    post_size = n_post + int((post_map >= n_post).sum())

    def _as_slice(idx: np.ndarray):
        lo = int(idx[0]) if idx.size else 0
        if np.array_equal(idx, np.arange(lo, lo + idx.size)):
            return slice(lo, lo + idx.size)
        return idx

    # Final group tuples: (kind, rr, widx, rsl, rsl2, tt2, payload).
    # ``widx``: for arrival producers, a tuple of (target, source-rows)
    # scatter pairs (source ``None`` = every row; the second pair
    # covers doubly-read slots); for posts, one plain index.  ``rsl``:
    # the consumed block (arrivals, or posts for _K_RDV_SEND), a slice
    # by construction.  ``rsl2``: the post block a _K_WAIT_EAGER
    # additionally reads.
    identity = np.arange(n, dtype=np.int64)
    groups = []
    for gi, (k, members) in enumerate(raw):
        if k == _K_COLL:
            for nid in members:
                groups.append((k, None, None, None, None, None,
                               payloads[nid]))
            continue
        rr = rank_arr[members]
        mm = nmsg_arr[members]
        tt2 = (tr_arr[mm][:, None] if k in (_K_EAGER_SEND, _K_RECV_EAGER,
                                            _K_RDV_SEND, _K_WAIT_EAGER)
               else None)
        pl = ([(int(rank_arr[e]), payloads[e]) for e in members]
              if k == _K_COMPUTE else None)
        if np.array_equal(rr, identity):
            rr = slice(None)
        widx = rsl = rsl2 = None
        if k in (_K_EAGER_SEND, _K_RDV_SEND):
            w2 = arr_map2[mm]
            has2 = w2 >= 0
            widx = ((_as_slice(arr_map1[mm]), None),)
            if has2.all():
                widx += ((_as_slice(w2), None),)
            elif has2.any():
                rows = np.flatnonzero(has2)
                widx += ((w2[rows], rows),)
        elif k in (_K_IRECV_POST, _K_RDV_POST):
            widx = _as_slice(post_map[mm])
        if k in (_K_RECV_EAGER, _K_RDV_COMPLETE, _K_WAIT_ARR,
                 _K_WAIT_EAGER):
            rsl = arr_blocks[gi]
        elif k == _K_RDV_SEND:
            rsl = post_blocks[gi]
        if k == _K_WAIT_EAGER:
            rsl2 = post_blocks[gi]
        groups.append((k, rr, widx, rsl, rsl2, tt2, pl))

    return _Tape(groups, (arr_size, post_size), n_events, n_messages,
                 bytes_sent)


#: Tapes are structural — they depend only on ``(trace, net)``, never
#: on configurations — so they are shared across batches.  The key pins
#: the trace object itself (keeping its ``id`` valid for the entry's
#: lifetime); a ``None`` tape records that the trace needs the
#: worklist-driver fallback, so the failed build isn't repeated either.
#: The :func:`_order_free` scan is cached the same way.
_TAPE_CACHE: LruDict = LruDict(8, eviction_counter="replay.tape.evictions")
_ORDER_FREE_CACHE: LruDict = LruDict(
    64, eviction_counter="replay.tape.evictions")


def _order_free_cached(trace: BurstTrace, net: NetworkConfig) -> bool:
    key = (id(trace), net)
    entry = _ORDER_FREE_CACHE.get(key)
    if entry is not None and entry[0] is trace:
        return entry[1]
    free = _order_free(trace, net)
    _ORDER_FREE_CACHE[key] = (trace, free)
    return free


def _tape_for(trace: BurstTrace, net: NetworkConfig) -> Optional[_Tape]:
    key = (id(trace), net)
    entry = _TAPE_CACHE.get(key)
    if entry is not None and entry[0] is trace:
        return entry[1]
    tape = _build_tape(trace, net)
    _TAPE_CACHE[key] = (trace, tape)
    get_metrics().inc("replay.tape.builds")
    return tape


def _run_array_tape(
    tape: _Tape,
    net: NetworkConfig,
    phase_duration: BatchPhaseDurationFn,
    n: int,
    n_cols: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Order-free driver: level-batched NumPy execution of the tape.

    Valid only under :func:`_order_free`.  Runs the identical float64
    operation sequence the scalar core performs per event — the
    redundant ``max(x, clock)`` clamps the scalar blocked/resumed paths
    apply are exact no-ops there (``x >= clock`` always holds at those
    points), so dropping them changes no bits.  Returns the final
    ``(clock, compute, p2p, collective)`` state matrices, one row per
    rank, one column per configuration.

    Full-rank groups run as ``out=``-pipelined kernels over the state
    matrices plus two scratch workspaces: at paper scale a (256, 864)
    float64 temporary costs more in allocator and fault traffic than
    the arithmetic it carries, so expressions that would chain three
    temporaries are fused into in-place ufunc calls.  The
    consumer-ordered buffer layout makes every consumed slot block a
    contiguous slice: the kernel takes the *view*, finishes the value
    in place (the slots are dead afterwards — each has exactly one
    reader) and adopts it as the new ``clock``, so receive/wait groups
    move zero gather bytes; only producers pay a fancy-index scatter.
    Partial groups — rare outside warmup levels — keep the simpler
    gather/compute/scatter form over the same views.  In-place ufuncs
    and buffer adoption do not change results: each kernel applies the
    same ops, in the same order, with the same operand values,
    element-wise.
    """
    ov = net.overhead_ns
    # Workspaces persist on the tape between runs: refaulting the
    # slot buffers' pages every call costs multiples of the actual
    # compute.  Only the five state matrices need re-zeroing; every
    # buffer slot is written by its producer group before any reader
    # group reads it (the DAG leveling guarantees the order), so the
    # message buffers carry over uninitialized.  The locals rebind to
    # adopted views as the run progresses; the cache keeps the
    # original allocations.
    if tape.ws is None or tape.ws[0] != n_cols:
        arr_size, post_size = tape.n_msgs
        tape.ws = (n_cols,
                   np.empty((arr_size, n_cols)),
                   np.empty((post_size, n_cols)),
                   [np.empty((n, n_cols)) for _ in range(5)],
                   np.empty((n, n_cols)),
                   np.empty((n, n_cols)))
    _, arr_buf, post_buf, state, ws1, ws2 = tape.ws
    clock, link_free, p2p, comp, coll = state
    for m in state:
        m.fill(0.0)

    for kind, rr, widx, rsl, rsl2, tt2, pl in tape.groups:
        full = type(rr) is slice
        if kind == _K_COMPUTE:
            dur = ws1 if full else np.empty((len(pl), n_cols))
            for j, (rank, ph) in enumerate(pl):
                dur[j] = phase_duration(rank, ph)
            if dur.min() < 0:
                raise ValueError("phase duration must be non-negative")
            if full:
                np.add(clock, dur, out=clock)
                np.add(comp, dur, out=comp)
            else:
                clock[rr] += dur
                comp[rr] += dur
        elif kind == _K_EAGER_SEND:
            if full:
                np.add(clock, ov, out=clock)                 # ready
                np.maximum(clock, link_free, out=link_free)  # start
                np.add(link_free, tt2, out=link_free)        # arrival
                for tgt, src in widx:
                    arr_buf[tgt] = link_free if src is None else \
                        link_free[src]
                np.add(p2p, ov, out=p2p)
            else:
                ready = clock[rr]
                np.add(ready, ov, out=ready)
                lf = link_free[rr]
                np.maximum(ready, lf, out=lf)
                np.add(lf, tt2, out=lf)
                for tgt, src in widx:
                    arr_buf[tgt] = lf if src is None else lf[src]
                link_free[rr] = lf
                clock[rr] = ready
                p2p[rr] += ov
        elif kind == _K_RECV_EAGER:
            av = arr_buf[rsl]
            if full:
                np.add(clock, tt2, out=ws1)      # post + transfer
                np.maximum(av, ws1, out=av)      # done, finished in place
                np.subtract(av, clock, out=ws2)
                np.add(p2p, ws2, out=p2p)
                clock = av
            else:
                pre = clock[rr]
                done = np.maximum(av, pre + tt2)
                p2p[rr] += done - pre
                clock[rr] = done
        elif kind == _K_IRECV_POST:
            if full:
                post_buf[widx] = clock
                np.add(clock, ov, out=clock)
                np.add(p2p, ov, out=p2p)
            else:
                pre = clock[rr]
                post_buf[widx] = pre
                clock[rr] = pre + ov
                p2p[rr] += ov
        elif kind == _K_RDV_POST:
            post_buf[widx] = clock if full else clock[rr]
        elif kind == _K_RDV_SEND:
            pv = post_buf[rsl]
            if full:
                np.add(clock, ov, out=ws1)           # ready
                np.maximum(ws1, pv, out=ws1)
                np.maximum(ws1, link_free, out=ws1)  # start
                np.subtract(ws1, clock, out=ws2)
                np.add(p2p, ws2, out=p2p)
                np.add(ws1, tt2, out=link_free)      # arrival
                for tgt, src in widx:
                    arr_buf[tgt] = link_free if src is None else \
                        link_free[src]
                clock, ws1 = ws1, clock
            else:
                pre = clock[rr]
                ready = pre + ov
                start = np.maximum(np.maximum(ready, pv), link_free[rr])
                arrival = start + tt2
                for tgt, src in widx:
                    arr_buf[tgt] = arrival if src is None else arrival[src]
                link_free[rr] = arrival
                p2p[rr] += start - pre
                clock[rr] = start
        elif kind == _K_RDV_COMPLETE:
            av = arr_buf[rsl]
            if full:
                np.subtract(av, clock, out=ws2)
                np.add(p2p, ws2, out=p2p)
                clock = av
            else:
                pre = clock[rr]
                p2p[rr] += av - pre
                clock[rr] = av
        elif kind == _K_WAIT_ARR:
            av = arr_buf[rsl]
            if full:
                np.maximum(av, clock, out=av)    # done, finished in place
                np.subtract(av, clock, out=ws2)
                np.add(p2p, ws2, out=p2p)
                clock = av
            else:
                pre = clock[rr]
                done = np.maximum(av, pre)
                p2p[rr] += done - pre
                clock[rr] = done
        elif kind == _K_WAIT_EAGER:
            av = arr_buf[rsl]
            pv = post_buf[rsl2]
            if full:
                np.add(pv, tt2, out=pv)
                np.maximum(av, pv, out=pv)       # buffered value
                np.maximum(pv, clock, out=pv)    # done, finished in place
                np.subtract(pv, clock, out=ws2)
                np.add(p2p, ws2, out=p2p)
                clock = pv
            else:
                pre = clock[rr]
                value = np.maximum(av, pv + tt2)
                done = np.maximum(value, pre)
                p2p[rr] += done - pre
                clock[rr] = done
        else:  # _K_COLL: enter clocks are frozen — every rank is parked
            ckind, size = pl
            cost = collective_cost_ns(ckind, n, size, net)
            done_row = clock.max(axis=0)
            np.add(done_row, cost, out=done_row)
            np.subtract(done_row[None, :], clock, out=ws1)
            np.add(coll, ws1, out=coll)
            clock[:] = done_row

    return clock, comp, p2p, coll


def _run_shared(core: _LockstepCore, active: np.ndarray) -> np.ndarray:
    """Order-free driver: one shared run-until-blocked worklist pass.

    Valid only under :func:`_order_free`; then any structurally legal
    order yields each column's bit-exact scalar result, so no clocks
    are consulted for scheduling and no column ever diverges.  On a
    structural deadlock every column is handed to the scalar engine,
    which reproduces the scalar diagnostic.
    """
    states = core.states
    events = core.events
    ready = deque()
    for r in range(core.n):
        if events[r]:
            ready.append(r)
        else:
            states[r].done = True
            core.n_unfinished -= 1
    core.on_wake = ready.append

    step = core.step
    while ready:
        r = ready.popleft()
        st = states[r]
        n_ev = len(events[r])
        while True:
            if st.cursor >= n_ev:
                st.done = True
                core.n_unfinished -= 1
                break
            if not step(r):
                st.blocked = True
                break
            core.worklist_events += 1

    if core.n_unfinished:
        return np.zeros_like(active)  # deadlock: scalar engine diagnoses
    return active


def _run_lockstep(
    trace: BurstTrace,
    net: NetworkConfig,
    phase_duration: BatchPhaseDurationFn,
    n_configs: int,
) -> Tuple[List[_LockstepCore], np.ndarray, int]:
    """Fork-on-divergence lockstep driver for order-sensitive batches.

    Runs a work stack of lockstep groups.  Within a group, every column
    agrees on the next ``(clock, rank)``-minimal rank (one dense
    ``argmin`` over the (rank, column) key matrix computes all columns'
    choices at once), so one batched step serves the whole group.  At a divergence point the group's columns
    are partitioned by their chosen rank and :func:`_fork_core` splits
    the core into one child per partition; each child re-derives its
    (now unanimous) choice from its own tree and continues.  Forked
    work is bounded: a group of one column can never diverge again, so
    at most ``n_configs - 1`` forks happen over the whole batch, and
    the per-column step sequence is by construction exactly the scalar
    engine's.

    Returns ``(groups, peeled, n_forks)``: the finished cores (each
    covering ``core.col_idx`` absolute columns), the mask of columns
    that hit a structural deadlock (handed to the scalar engine, which
    owns the diagnostic), and the number of extra groups divergences
    created.
    """
    stack = [_LockstepCore(trace, net, phase_duration, n_configs)]
    groups: List[_LockstepCore] = []
    peeled = np.zeros(n_configs, dtype=bool)
    n_forks = 0
    while stack:
        core = stack.pop()
        states = core.states
        events = core.events
        # Dense (rank, column) key matrix: row r is rank r's clock
        # column, +inf while r is blocked or done.  argmin(axis=0)
        # takes the *first* minimum per column, i.e. the smallest rank
        # among ties — the scalar engine's (clock, rank) comparison.
        keys = np.full((core.n, core.n_cols), np.inf)

        def _wake(rank: int, _k=keys, _s=states) -> None:
            _k[rank] = _s[rank].clock

        core.on_wake = _wake
        for r in range(core.n):
            st = states[r]
            if not st.done and st.cursor >= len(events[r]):
                st.done = True
                core.n_unfinished -= 1
            if not st.done and not st.blocked:
                keys[r] = st.clock
        diverged = None
        while core.n_unfinished:
            args = keys.argmin(axis=0)
            r = int(args[0])
            if np.isinf(keys[r, 0]):
                # Column 0's minimum is inf, so every remaining rank is
                # blocked — in every column, because blocked/done are
                # group-level structural state (an all-inf matrix also
                # makes argmin unanimous, so this check fires first).
                break
            if not (args == r).all():
                diverged = args
                break
            st = states[r]
            if core.step(r):
                core.lockstep_events += 1
                if st.cursor >= len(events[r]):
                    st.done = True
                    core.n_unfinished -= 1
                    keys[r] = np.inf
                else:
                    keys[r] = st.clock
            else:
                st.blocked = True
                keys[r] = np.inf
        if diverged is not None:
            choices = np.unique(diverged)
            n_forks += int(choices.size) - 1
            for v in choices:
                stack.append(_fork_core(core, np.flatnonzero(diverged == v)))
        elif core.n_unfinished:
            # Structural deadlock: the scalar engine raises the
            # diagnostic per config.
            cols = (core.col_idx if core.col_idx is not None
                    else np.arange(n_configs))
            peeled[cols] = True
        else:
            groups.append(core)
    return groups, peeled, n_forks


def _core_results(core: _LockstepCore, cols: np.ndarray,
                  results: List[Optional[ReplayResult]]) -> None:
    """Assemble one finished core's columns into ``results``."""
    clock_m = np.stack([st.clock for st in core.states])
    comp_m = np.stack([st.compute_ns for st in core.states])
    p2p_m = np.stack([st.p2p_ns for st in core.states])
    coll_m = np.stack([st.collective_ns for st in core.states])
    total = clock_m.max(axis=0)
    for j, c in enumerate(cols):
        results[int(c)] = ReplayResult(
            total_ns=float(total[j]),
            compute_ns=comp_m[:, j].copy(),
            p2p_ns=p2p_m[:, j].copy(),
            collective_ns=coll_m[:, j].copy(),
            n_messages=core.n_messages,
            bytes_sent=core.bytes_sent,
        )


def replay_batch(
    trace: BurstTrace,
    net: NetworkConfig,
    phase_duration: BatchPhaseDurationFn,
    n_configs: int,
) -> List[ReplayResult]:
    """Replay ``trace`` for ``n_configs`` configurations in one pass.

    ``phase_duration(rank, phase)`` returns the phase's duration as a
    float64 column over the configuration axis.  The result list holds
    one :class:`~repro.network.replay.ReplayResult` per configuration,
    bit-identical to ``replay(trace, net, scalar_fn_i, ...)`` with
    ``scalar_fn_i`` reading column ``i`` — for every configuration,
    whether it ran on the array tape, the worklist pass (the fallback
    when an order-free trace's tape build bails out), a forked lockstep
    group, or (only on a structural deadlock) the scalar engine, which
    raises the diagnostic.

    Counters: ``replay.batch.array_events`` / ``worklist_events`` /
    ``lockstep_events`` (config-events priced per driver),
    ``replay.batch.driver.{array,worklist,lockstep}`` (the driver this
    call actually ran), ``replay.batch.array_fallbacks`` (tape build
    bail-outs), ``replay.batch.forked_groups``,
    ``replay.batch.peeled_configs``, and scalar-equivalent
    ``replay.events`` / ``replay.messages`` / ``replay.bus_waits``
    totals for the batched columns (peeled columns report through
    their scalar runs).
    """
    if n_configs <= 0:
        raise ValueError("n_configs must be positive")
    obs = get_metrics()
    results: List[Optional[ReplayResult]] = [None] * n_configs
    peeled_mask = np.zeros(n_configs, dtype=bool)

    order_free = _order_free_cached(trace, net)
    tape = None
    if order_free:
        tape = _tape_for(trace, net)
        if tape is None:
            obs.inc("replay.batch.array_fallbacks")

    with obs.span("replay.batch.run"):
        if tape is not None:
            n = trace.n_ranks
            clock, comp, p2p, coll = _run_array_tape(
                tape, net, phase_duration, n, n_configs)
            obs.inc("replay.batch.driver.array")
            obs.inc("replay.batch.array_events", tape.n_events * n_configs)
            obs.inc("replay.events", tape.n_events * n_configs)
            obs.inc("replay.messages", tape.n_messages * n_configs)
            total = clock.max(axis=0)
            # Config-major copies: one transpose pass instead of
            # n_configs strided column extractions; rows are disjoint
            # views, and per-config consumers never share them.
            comp_t = np.ascontiguousarray(comp.T)
            p2p_t = np.ascontiguousarray(p2p.T)
            coll_t = np.ascontiguousarray(coll.T)
            for c in range(n_configs):
                results[c] = ReplayResult(
                    total_ns=float(total[c]),
                    compute_ns=comp_t[c],
                    p2p_ns=p2p_t[c],
                    collective_ns=coll_t[c],
                    n_messages=tape.n_messages,
                    bytes_sent=tape.bytes_sent,
                )
        elif order_free:
            core = _LockstepCore(trace, net, phase_duration, n_configs)
            active = _run_shared(core, np.ones(n_configs, dtype=bool))
            obs.inc("replay.batch.driver.worklist")
            n_active = int(active.sum())
            obs.inc("replay.batch.worklist_events",
                    core.worklist_events * n_active)
            if n_active:
                obs.inc("replay.events", core.n_steps * n_active)
                obs.inc("replay.messages", core.n_messages * n_active)
                _core_results(core, np.flatnonzero(active), results)
            peeled_mask = ~active
        else:
            groups, peeled_mask, n_forks = _run_lockstep(
                trace, net, phase_duration, n_configs)
            obs.inc("replay.batch.driver.lockstep")
            if n_forks:
                obs.inc("replay.batch.forked_groups", n_forks)
            for core in groups:
                cols = (core.col_idx if core.col_idx is not None
                        else np.arange(n_configs))
                k = int(cols.size)
                obs.inc("replay.batch.lockstep_events",
                        core.lockstep_events * k)
                obs.inc("replay.events", core.n_steps * k)
                obs.inc("replay.messages", core.n_messages * k)
                bus_waits = int(core.buses.n_waits.sum())
                if bus_waits:
                    obs.inc("replay.bus_waits", bus_waits)
                _core_results(core, cols, results)

    peeled = np.flatnonzero(peeled_mask)
    if peeled.size:
        obs.inc("replay.batch.peeled_configs", int(peeled.size))
        for c in peeled:
            def column(rank: int, phase: ComputePhase, _c=int(c)) -> float:
                return phase_duration(rank, phase)[_c]

            results[c] = replay(trace, net, column)
    return results  # type: ignore[return-value]
