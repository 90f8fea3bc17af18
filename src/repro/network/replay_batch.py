"""Config-vectorized MPI trace replay: one pass per design-space batch.

The scalar replay (:mod:`repro.network.replay`) walks a trace once per
node configuration, even though within one design-space batch the trace
— and therefore almost all of the replay's *control flow* — is shared:
the network is fixed across the space (as in MUSA, where the Dimemas
parameters never change), so message sizes, eager/rendezvous protocol
choices, matching, collective membership and blocking structure are all
configuration-invariant.  Only the compute-phase durations differ per
configuration.

:func:`replay_batch` has exactly two paths:

**Array tape** (:func:`_run_array_tape`).  The scalar replay is
*confluent* whenever no shared resource couples ranks: every message
cost is computed from endpoint-local dataflow values, collective
completion is a commutative max over entry times, and FIFO matching per
``(src, dst, tag)`` pairs the k-th send with the k-th receive under any
interleaving.  The global ``(clock, rank)`` step order exists solely to
serialize the finite-bus pool — plus one structural corner: a key
carrying both eager-buffered and rendezvous sends.  :func:`_order_free`
checks both conditions (``n_buses == 0`` and protocol-pure keys, one
O(events) scan).  They hold for the paper's MareNostrum4-like network,
which has an unlimited bus pool, and for every bundled app on it.  The
whole matching is then *structural*: :func:`_build_tape` resolves it
once in pure Python (no floats), levels the resulting value DAG by
dependency depth, and the driver executes it level by level with one
NumPy pass per (level, kind) group over (events-in-level x configs).
Full-rank groups (the bulk-synchronous common case) run as
``out=``-pipelined in-place kernels over two reusable workspace
matrices, so a level costs stream passes over the state, not allocator
round-trips for chained temporaries.  Every float64 operation along a
column stays the identical scalar operation — see the tape section
below for why dropped clamps are exact no-ops.

**Scalar reference** (:func:`_run_scalar`).  Everything else — a
finite bus pool, whose grant order depends on each configuration's
clocks; a protocol-mixed key; or a tape that cannot be built (would
deadlock, waits on an unknown request, prices a ragged collective) —
runs the scalar event engine :func:`~repro.network.replay.replay` once
per column.  Each ``(rank, phase)`` duration column is computed once
per call and every column's replay indexes into it.  The results, and
any deadlock diagnostic, are the reference's by construction.

Counters: ``replay.batch.array_events`` (config-events priced by the
array driver), ``replay.batch.driver.{array,scalar}`` (which path a
:func:`replay_batch` call actually ran, so a silent tape bail-out can
never masquerade as an array-driver run), ``replay.batch.array_fallbacks``
(order-free batches whose tape could not be built), plus the
scalar-equivalent ``replay.events`` / ``replay.messages`` totals (the
scalar path reports those, and ``replay.bus_waits``, through its
``replay()`` calls).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

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
# payload) falls back to per-column scalar replay, which raises the
# reference diagnostics.

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
    then falls back to per-column scalar replay, which owns those
    diagnostics.
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
#: lifetime); a ``None`` tape records that the trace needs the scalar
#: fallback, so the failed build isn't repeated either.
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


def _run_scalar(
    trace: BurstTrace,
    net: NetworkConfig,
    phase_duration: BatchPhaseDurationFn,
    n_configs: int,
) -> List[ReplayResult]:
    """Reference path: the scalar event engine once per column.

    ``phase_duration`` runs once per ``(rank, phase)`` per call, not
    once per event per column; each column's replay indexes the cached
    duration list (plain floats, so the engine's arithmetic is the
    same it performs for any scalar duration function).
    """
    columns: Dict[Tuple[int, int], List[float]] = {}

    def column(rank: int, phase: ComputePhase) -> List[float]:
        key = (rank, id(phase))
        col = columns.get(key)
        if col is None:
            dur = np.asarray(phase_duration(rank, phase), dtype=np.float64)
            col = columns[key] = np.broadcast_to(dur, (n_configs,)).tolist()
        return col

    return [replay(trace, net, lambda r, p, _c=c: column(r, p)[_c])
            for c in range(n_configs)]


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
    ``scalar_fn_i`` reading column ``i`` — on the array tape when the
    trace is order-free and its tape builds, otherwise because that is
    literally what the scalar fallback runs (and a structural deadlock
    raises the scalar diagnostic).

    Counters: ``replay.batch.array_events`` (config-events priced by
    the tape), ``replay.batch.driver.{array,scalar}`` (the path this
    call actually ran), ``replay.batch.array_fallbacks`` (tape build
    bail-outs), and scalar-equivalent ``replay.events`` /
    ``replay.messages`` totals.
    """
    if n_configs <= 0:
        raise ValueError("n_configs must be positive")
    obs = get_metrics()
    tape = None
    if _order_free_cached(trace, net):
        tape = _tape_for(trace, net)
        if tape is None:
            obs.inc("replay.batch.array_fallbacks")

    with obs.span("replay.batch.run"):
        if tape is None:
            obs.inc("replay.batch.driver.scalar")
            return _run_scalar(trace, net, phase_duration, n_configs)
        clock, comp, p2p, coll = _run_array_tape(
            tape, net, phase_duration, trace.n_ranks, n_configs)
        obs.inc("replay.batch.driver.array")
        obs.inc("replay.batch.array_events", tape.n_events * n_configs)
        obs.inc("replay.events", tape.n_events * n_configs)
        obs.inc("replay.messages", tape.n_messages * n_configs)
        total = clock.max(axis=0)
        # Config-major copies: one transpose pass instead of n_configs
        # strided column extractions; rows are disjoint views, and
        # per-config consumers never share them.
        comp_t = np.ascontiguousarray(comp.T)
        p2p_t = np.ascontiguousarray(p2p.T)
        coll_t = np.ascontiguousarray(coll.T)
        return [ReplayResult(total_ns=float(total[c]),
                             compute_ns=comp_t[c],
                             p2p_ns=p2p_t[c],
                             collective_ns=coll_t[c],
                             n_messages=tape.n_messages,
                             bytes_sent=tape.bytes_sent)
                for c in range(n_configs)]
