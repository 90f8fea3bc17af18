"""Config-vectorized MPI trace replay: one pass per design-space batch.

A sweep keeps one number of a replay: the makespan.  :func:`replay_batch`
returns exactly that, one float64 ``total_ns`` per configuration; the
per-rank compute/p2p/collective breakdown is the scalar engine's alone.

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
carrying both eager-buffered and rendezvous sends.  :func:`_classify`
checks both conditions (``n_buses == 0`` and protocol-pure keys) with
array operations over the trace's integer event columns
(:class:`~repro.trace.burst.EventColumns`).  They hold for the paper's
MareNostrum4-like network, which has an unlimited bus pool, and for
every bundled app on it.  The whole matching is then *structural*:
:func:`_build_tape` resolves it once from the same columns (sorts,
uniques and cumulative counts; no floats, no event objects), levels
the resulting value DAG by dependency depth, and the driver executes it
level by level with one NumPy pass per (level, kind) group over
(events-in-level x configs).
A trace stores one period per rank plus a repeat count (every bundled
app's generator emits one iteration, repeated ``n_iterations`` times);
when the period is message-balanced the tape covers that period and
runs ``reps`` times, carrying the ``clock`` and ``link_free`` matrices
across periods, and the flat stream is never built.  Otherwise the
tape covers :func:`_flat_columns`, the period tiled ``repeats`` times
with request ids numbered on across copies.  Every group kernel writes
``clock`` in place through ``out=``, so a level costs stream passes
over the state, not allocator round-trips for chained temporaries, and
message buffers reuse the rows of values already read.  Every float64
operation along a column stays the identical scalar operation — see the
tape section below for why dropped clamps are exact no-ops.

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
(order-free batches whose tape could not be built), ``replay.tape.builds``
/ ``replay.tape.evictions`` (tape cache misses that built, and entries
the cache dropped), ``replay.tape.workspace_bytes`` (bytes allocated
for the tapes' cached workspaces), plus the scalar-equivalent
``replay.events`` / ``replay.messages`` totals (the scalar path reports
those, and ``replay.bus_waits``, through its ``replay()`` calls).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs import get_metrics
from ..trace.burst import (FIRST_COLLECTIVE, IRECV, ISEND, KINDS, RECV, SEND,
                           WAIT, BurstTrace, EventColumns)
from ..trace.events import ComputePhase
from ..util import LruDict
from .collectives import collective_cost_ns
from .model import NetworkConfig
from .replay import replay

__all__ = ["replay_batch", "BatchPhaseDurationFn"]

#: Maps (rank, phase) to a per-configuration duration column (ns).
BatchPhaseDurationFn = Callable[[int, ComputePhase], np.ndarray]


def _per_size(sizes: np.ndarray, fn: Callable, dtype) -> np.ndarray:
    """``fn`` (a scalar network function) of every size: evaluated once
    per distinct size, so each value is the scalar path's own."""
    uniq, inv = np.unique(sizes, return_inverse=True)
    return np.array([fn(int(s)) for s in uniq], dtype=dtype)[inv]


def _first_touch(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ids for ``codes``, numbered in order of first appearance,
    and each id's first position."""
    _, first, inv = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(first), dtype=np.int64)
    number[order] = np.arange(len(first))
    return number[inv], first[order]


def _cumcount(groups: np.ndarray) -> np.ndarray:
    """Each element's rank among the earlier elements of its group."""
    order = np.argsort(groups, kind="stable")
    g = groups[order]
    starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
    sizes = np.diff(np.concatenate((starts, [len(g)])))
    out = np.empty(len(g), dtype=np.int64)
    out[order] = np.arange(len(g)) - np.repeat(starts, sizes)
    return out


def _classify(
    trace: BurstTrace, net: NetworkConfig,
) -> Optional[Tuple[np.ndarray, np.ndarray, int]]:
    """Array checks over the period columns: can a tape replay
    ``trace``, and how?

    Returns ``None`` when the replay's values can depend on step order:
    a finite bus pool (``n_buses > 0``) — the one shared resource whose
    grant order is observable — or a point-to-point ``(src, dst, tag)``
    key carrying both eager/isend-buffered and rendezvous sends, because
    ``_match_source`` prefers a buffered send over an advertised
    rendezvous one, making mixed-key pairing depend on what is
    outstanding at discovery time.

    Otherwise returns ``(key, eager, reps)``, the first two one entry
    per period row: the dense id of a send's or receive's
    ``(src, dst, tag)`` key (-1 for other rows), and its key's protocol
    (1 eager, 0 rendezvous, -1 for a receive whose key has no send);
    ``reps`` is the number of times the tape may run one period —
    ``trace.repeats`` when the period is message-balanced (per key, as
    many receives as sends), else 1.  A balanced period pairs every send
    with a receive of its own period under FIFO matching; it closes its
    own requests (the trace validates that), and every copy holds the
    period's own phase objects, so the period's tape run ``repeats``
    times is the full replay.  A flat trace (``repeats == 1``) takes the
    full tape.
    """
    if net.n_buses > 0:
        return None
    c = trace.columns
    kind = c.kind
    sends = (kind == SEND) | (kind == ISEND)
    at = np.flatnonzero(sends | (kind == RECV) | (kind == IRECV))
    key = np.full(len(kind), -1, dtype=np.int64)
    eager = np.full(len(kind), -1, dtype=np.int64)
    if not at.size:
        return key, eager, trace.repeats
    rank = c.event_ranks()[at]
    peer = c.peer[at]
    is_send = sends[at]
    src = np.where(is_send, rank, peer)
    dst = np.where(is_send, peer, rank)
    _, tag = np.unique(c.tag[at], return_inverse=True)   # dense codes
    _, key[at] = np.unique((src * trace.n_ranks + dst) * (tag.max() + 1)
                           + tag, return_inverse=True)
    n_keys = int(key.max()) + 1
    s_key = key[at][is_send]
    s_eager = (kind[at][is_send] == ISEND) | _per_size(
        c.size[at][is_send], net.is_eager, bool)
    n_send = np.bincount(s_key, minlength=n_keys)
    n_eager = np.bincount(s_key[s_eager], minlength=n_keys)
    if ((n_eager > 0) & (n_eager < n_send)).any():
        return None
    eager[at] = np.where(n_send > 0, n_eager > 0, -1)[key[at]]
    n_recv = np.bincount(key[at][~is_send], minlength=n_keys)
    return key, eager, (trace.repeats if np.array_equal(n_send, n_recv)
                        else 1)


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
# receive-post clock, or a collective's entry set).  _build_tape
# resolves the matching with array operations over the trace's event
# columns (FIFO slots by per-key cumulative counts, collectives by
# per-rank (kind, seq), waits by their (rank, request) predecessor; no
# floats, no event objects), and levels the DAG by depth;
# _run_array_tape then executes it level by
# level with one NumPy pass per (level, kind) group — the same float64
# ops the scalar ``step`` performs, (events-in-level x configs) at a
# time — instead of ~one Python ``step()`` call per event.  Because an
# event's depth strictly exceeds its same-rank predecessor's, each rank
# appears at most once per level, so the fancy-index scatters never
# collide.  Any structural snag (unmatched receive, rendezvous deadlock
# cycle, unknown wait request, ragged collective, non-uniform collective
# payload) falls back to per-column scalar replay, which raises the
# reference diagnostics.
#
# A periodic trace (see _classify) is built from its stored period only
# and the driver runs that tape ``reps`` times.  Each period's slots are
# produced and consumed within it (requests and messages are closed per
# period, collectives match by per-period sequence), and same-rank state
# — clock and link availability — carries over in the state matrices, so
# every column executes the very float64 ops, on the very operands, of
# the full tape, in another valid topological order.  Results are
# bit-identical; the tape shrinks by the factor ``reps``, and its message
# buffers hold the values live at one time, not a whole period's.

#: Columns per block of :func:`_run_array_tape`, which bounds a tape's
#: cached workspace to ``rows x 64 x 8`` bytes.  At 256 ranks, blocks
#: of 64 and 128 columns ran a sweep's calls fastest (within noise of
#: each other, ahead of 32 and 256: EXPERIMENTS.md, "Column-blocked
#: replay tape"); 64 keeps the smaller workspace.
_BLOCK_COLS = 64

(_K_COMPUTE, _K_EAGER_SEND, _K_RECV_EAGER, _K_IRECV_POST, _K_RDV_SEND,
 _K_RDV_POST, _K_RDV_COMPLETE, _K_WAIT_ARR, _K_WAIT_EAGER,
 _K_COLL) = range(10)


def _live_rows(blocks: List[Tuple[int, int, int, int]]
               ) -> Tuple[np.ndarray, int]:
    """Buffer rows for virtual row ``blocks`` of ``(first, last, start,
    size)``: virtual rows ``start:start + size``, written from group
    ``first`` on and last read by group ``last``.

    Blocks are placed first-fit in order of ``first``, each on the
    lowest run of rows whose occupants were all read before it is
    written, so a block stays one contiguous run and rows of dead
    blocks are reused.  Returns the virtual-to-buffer row map and the
    buffer's row count.
    """
    row = np.empty(max((b[2] + b[3] for b in blocks), default=0),
                   dtype=np.int64)
    dead = np.empty(0, dtype=np.int64)   # last reader group per row
    for first, last, start, size in sorted(blocks, key=lambda b: b[0]):
        free = np.concatenate(([0], dead < first, np.ones(size, bool)))
        run = np.cumsum(free)
        at = int(np.argmax(run[size:] - run[:-size] == size))
        dead = np.concatenate((dead, np.zeros(max(0, at + size - len(dead)),
                                              dtype=np.int64)))
        dead[at:at + size] = last
        row[start:start + size] = np.arange(at, at + size)
    return row, len(dead)


def _block(row: np.ndarray, start: int, size: int) -> slice:
    """The buffer rows of the virtual block at ``start``: one slice."""
    return slice(int(row[start]), int(row[start]) + size)


class _Tape:
    #: ``groups`` price one period; the driver runs them ``reps`` times
    #: (``n_events``/``n_messages``/``bytes_sent`` count all periods).
    #: ``n_msgs`` holds the (arrival, post) buffer row counts, sized by
    #: live range (:func:`_live_rows`); ``ws`` caches the driver's
    #: buffers and state matrices for one column block between runs
    #: (:func:`_workspace`: repaying their first-touch page faults on
    #: every call costs more than the arithmetic).
    __slots__ = ("groups", "reps", "n_msgs", "n_events", "n_messages",
                 "bytes_sent", "ws")

    def __init__(self, groups, reps, n_msgs, n_events, n_messages,
                 bytes_sent):
        self.groups = groups
        self.reps = reps
        self.n_msgs = n_msgs
        self.n_events = n_events * reps
        self.n_messages = n_messages * reps
        self.bytes_sent = bytes_sent * reps
        self.ws = None


def _build_tape(
    cols: EventColumns,
    phases: Tuple[ComputePhase, ...],
    net: NetworkConfig,
    key: np.ndarray,
    eager: np.ndarray,
    reps: int,
) -> Optional[_Tape]:
    """Structural pre-pass: match, level, and group one period's replay.

    ``cols`` holds each rank's stream for one period — the whole trace
    when ``reps == 1`` — whose ``phase`` column indexes ``phases``;
    ``key`` and ``eager`` give each row's point-to-point key and
    protocol, from :func:`_classify`.  Every step is an array operation
    over the rows.  Returns ``None`` when the events cannot be fully
    resolved structurally (they would deadlock, wait on an unknown
    request, or price a collective whose per-rank payloads disagree) —
    the caller then falls back to per-column scalar replay, which owns
    those diagnostics.
    """
    n = cols.n_ranks
    kind, size = cols.kind, cols.size
    n_events = len(kind)
    rank = cols.event_ranks()
    is_send = (kind == SEND) | (kind == ISEND)
    is_recv = (kind == RECV) | (kind == IRECV)
    is_coll = kind >= FIRST_COLLECTIVE
    rdv_recv = (kind == RECV) & (eager == 0)
    if ((kind == RECV) & (eager < 0)).any():
        return None  # a receive no rank ever sends to: structural deadlock

    # Message slots: send i and receive i of a key share slot (key, i)
    # (FIFO matching); slots are numbered in order of first touch, rows
    # read rank-major.
    p2p = np.flatnonzero(is_send | is_recv)
    nth = _cumcount(key[p2p] * 2 + is_send[p2p])
    msg = np.full(n_events, -1, dtype=np.int64)
    msg[p2p], first = _first_touch(key[p2p] * (int(nth.max(initial=0)) + 1)
                                   + nth)
    n_msgs = len(first)

    # Each wait consumes the request its rank last opened under that id:
    # its predecessor in (rank, request, row) order.
    rq = np.flatnonzero((kind == ISEND) | (kind == IRECV) | (kind == WAIT))
    rq = rq[np.lexsort((rq, cols.request[rq], rank[rq]))]
    is_wait = kind[rq] == WAIT
    same = np.concatenate(([False], (rank[rq][1:] == rank[rq][:-1])
                           & (cols.request[rq][1:] == cols.request[rq][:-1])))
    wait = rq[is_wait]
    opener = rq[np.flatnonzero(is_wait) - 1] if wait.size else wait
    if not (same[is_wait].all() and (kind[opener] != WAIT).all()):
        return None  # wait on an unknown request: the scalar engine raises
    from_irecv = kind[opener] == IRECV
    if (from_irecv & (eager[opener] < 0)).any():
        return None  # waits on a receive no rank ever sends to
    msg[wait] = msg[opener]

    # Node kinds per row; a rendezvous blocking receive is two nodes
    # (post, completion) and a collective one node all ranks share.
    ev_kind = np.full(n_events, _K_COMPUTE, dtype=np.int64)
    ev_kind[is_send] = np.where(eager[is_send] == 1, _K_EAGER_SEND,
                                _K_RDV_SEND)
    ev_kind[kind == RECV] = _K_RECV_EAGER
    ev_kind[rdv_recv] = _K_RDV_POST
    ev_kind[kind == IRECV] = _K_IRECV_POST
    ev_kind[wait] = np.where(from_irecv & (eager[opener] == 1),
                             _K_WAIT_EAGER, _K_WAIT_ARR)
    count = (~is_coll).astype(np.int64) + rdv_recv
    node = np.cumsum(count) - count        # first node of each plain row
    n_plain = int(count.sum())

    # Collectives match across ranks by per-rank (kind, seq).
    coll = np.flatnonzero(is_coll)
    seq = _cumcount(rank[coll] * len(KINDS) + kind[coll])
    c_id, c_first = _first_touch(seq * len(KINDS) + kind[coll])
    n_coll = len(c_first)
    node[coll] = n_plain + c_id
    c_size = size[coll][c_first]
    if (size[coll] != c_size[c_id]).any():
        return None  # ragged payload: completion order decides
    if (np.bincount(c_id, minlength=n_coll) != n).any():
        return None  # some rank never joins: structural deadlock
    coll_payload = [(KINDS[k], sz) for k, sz in
                    zip(kind[coll][c_first].tolist(), c_size.tolist())]

    n_nodes = n_plain + n_coll
    rows = np.concatenate((np.flatnonzero(~is_coll), np.flatnonzero(rdv_recv)))
    at = np.concatenate((node[~is_coll], node[rdv_recv] + 1))
    kind_arr = np.full(n_nodes, _K_COLL, dtype=np.int64)
    kind_arr[at] = np.concatenate((ev_kind[~is_coll], np.full(
        int(rdv_recv.sum()), _K_RDV_COMPLETE)))
    rank_arr = np.full(n_nodes, -1, dtype=np.int64)
    rank_arr[at] = rank[rows]
    nmsg_arr = np.full(n_nodes, -1, dtype=np.int64)
    nmsg_arr[at] = msg[rows]
    phase_arr = np.full(n_nodes, -1, dtype=np.int64)
    phase_arr[at] = cols.phase[rows]
    last = node + rdv_recv                 # last node of each row

    # Same-rank chain edges, then cross-rank value edges.
    chain = np.flatnonzero(rank[1:] == rank[:-1])
    e_src = [last[chain], node[rdv_recv]]
    e_dst = [node[chain + 1], node[rdv_recv] + 1]
    arrival = np.full(n_msgs, -1, dtype=np.int64)
    arrival[msg[is_send]] = node[is_send]
    post = np.full(n_msgs, -1, dtype=np.int64)
    posting = (kind == IRECV) | rdv_recv
    post[msg[posting]] = node[posting]
    consumer = np.flatnonzero(np.isin(kind_arr, (_K_RECV_EAGER,
                                                 _K_RDV_COMPLETE, _K_WAIT_ARR,
                                                 _K_WAIT_EAGER)))
    arr_src = arrival[nmsg_arr[consumer]]
    if (arr_src < 0).any():
        return None  # consumes a message nobody sends
    w_eager = np.flatnonzero(kind_arr == _K_WAIT_EAGER)
    rdv_send = np.flatnonzero(kind_arr == _K_RDV_SEND)
    rdv_src = post[nmsg_arr[rdv_send]]
    if (rdv_src < 0).any():
        return None  # rendezvous sender blocks forever
    e_src += [arr_src, post[nmsg_arr[w_eager]], rdv_src]
    e_dst += [consumer, w_eager, rdv_send]
    src = np.concatenate(e_src)
    dst = np.concatenate(e_dst)

    tr_arr = np.full(n_msgs, np.nan)
    tr_arr[msg[is_send]] = _per_size(size[is_send], net.transfer_ns,
                                     np.float64)
    n_messages = int(is_send.sum())
    bytes_sent = int(size[is_send].sum())

    # Level the DAG (depth = 1 + max over predecessors) with Kahn waves
    # vectorized over the flat edge list: each wave expands the whole
    # zero-indegree frontier at once.  Total work is O(edges) spread
    # over ~levels vector calls instead of O(edges) dict/list hops.
    depth = np.zeros(n_nodes, dtype=np.int64)
    if src.size:
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
            # Sorted distinct targets.  Not ``np.unique``: NumPy's
            # plain unique imports ``numpy.ma`` (about 15 ms and 1 MB
            # in every fresh process that builds a tape).
            ds.sort()
            cand = ds[np.concatenate(([True], ds[1:] != ds[:-1]))]
            frontier = cand[indeg[cand] == 0]
        if processed != n_nodes:
            return None  # dependency cycle: a genuine deadlock

    # Group by (depth, kind); groups are rank-disjoint within a level.
    # Plain node ids are assigned rank-major (collective nodes follow
    # them) and the sort is stable, so members sort by rank within a
    # group; when a group covers every
    # rank, the index array is the identity permutation and a full
    # slice serves instead — the driver then runs its in-place
    # whole-matrix kernels (the common case: bulk-synchronous apps keep
    # all ranks at the same depth).
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
    # send).  Each (slot, reader) pair gets its *own* buffer row, and
    # every reader group's rows form one contiguous run: the driver
    # reads plain slices instead of fancy-index gathers, and only
    # producers pay a scatter (twice, for the doubly-read slots).  At
    # paper scale the reader gathers were ~40% of the driver's memory
    # traffic.  The walk numbers rows virtually, one block per reader
    # group plus one per producer group for its never-read slots
    # (unreceived sends, unwaited irecvs), keeping producer scatters
    # unconditional; :func:`_live_rows` then folds the blocks onto the
    # rows of blocks already dead.
    arr_map1 = np.full(n_msgs, -1, dtype=np.int64)
    arr_map2 = np.full(n_msgs, -1, dtype=np.int64)
    post_map = np.full(n_msgs, -1, dtype=np.int64)
    arr_prod = np.full(n_msgs, -1, dtype=np.int64)    # producer group
    post_prod = np.full(n_msgs, -1, dtype=np.int64)
    arr_live: List[Tuple[int, int, int, int]] = []
    post_live: List[Tuple[int, int, int, int]] = []
    n_arr = n_post = 0
    arr_blocks: List[Optional[int]] = []
    post_blocks: List[Optional[int]] = []
    for gi, (k, members) in enumerate(raw):
        ablk = pblk = None
        mm = nmsg_arr[members]
        if k in (_K_EAGER_SEND, _K_RDV_SEND):
            arr_prod[mm] = gi
        elif k in (_K_IRECV_POST, _K_RDV_POST):
            post_prod[mm] = gi
        if k in (_K_RECV_EAGER, _K_RDV_COMPLETE, _K_WAIT_ARR,
                 _K_WAIT_EAGER):
            ids = np.arange(n_arr, n_arr + mm.size)
            ablk = n_arr
            arr_live.append((int(arr_prod[mm].min()), gi, n_arr, mm.size))
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
            pblk = n_post
            post_live.append((int(post_prod[mm].min()), gi, n_post,
                              mm.size))
            n_post += mm.size
        arr_blocks.append(ablk)
        post_blocks.append(pblk)
    for mp, cnt, prod, live in ((arr_map1, n_arr, arr_prod, arr_live),
                                (post_map, n_post, post_prod, post_live)):
        # A never-read slot lives only at its producer group.
        left = np.flatnonzero((mp < 0) & (prod >= 0))
        left = left[np.argsort(prod[left], kind="stable")]
        mp[left] = np.arange(cnt, cnt + left.size)
        g, at, sz = np.unique(prod[left], return_index=True,
                              return_counts=True)
        live += [(int(gg), int(gg), cnt + int(a), int(z))
                 for gg, a, z in zip(g, at, sz)]
    arr_row, arr_size = _live_rows(arr_live)
    post_row, post_size = _live_rows(post_live)
    for mp, row in ((arr_map1, arr_row), (arr_map2, arr_row),
                    (post_map, post_row)):
        placed = mp >= 0
        mp[placed] = row[mp[placed]]

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
                               coll_payload[nid - n_plain]))
            continue
        rr = rank_arr[members]
        mm = nmsg_arr[members]
        tt2 = (tr_arr[mm][:, None] if k in (_K_EAGER_SEND, _K_RECV_EAGER,
                                            _K_RDV_SEND, _K_WAIT_EAGER)
               else None)
        pl = ([(r, phases[i]) for r, i in zip(rank_arr[members].tolist(),
                                              phase_arr[members].tolist())]
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
        if arr_blocks[gi] is not None:
            rsl = _block(arr_row, arr_blocks[gi], mm.size)
        if post_blocks[gi] is not None:
            if k == _K_RDV_SEND:
                rsl = _block(post_row, post_blocks[gi], mm.size)
            else:
                rsl2 = _block(post_row, post_blocks[gi], mm.size)
        groups.append((k, rr, widx, rsl, rsl2, tt2, pl))

    return _Tape(groups, reps, (arr_size, post_size), n_events, n_messages,
                 bytes_sent)


#: Tapes are structural — they depend only on ``(trace, net)``, never
#: on configurations — so they are shared across batches.  An entry is
#: ``(trace, tape, order_free)``: the key pins the trace object itself
#: (keeping its ``id`` valid for the entry's lifetime), and a ``None``
#: tape records that the trace needs the scalar fallback — order
#: dependent, or an order-free trace whose build bailed out — so
#: neither the scan nor a failed build is repeated.  Sixteen entries
#: hold every (app, ranks) trace a serve stream cycles through; each
#: keeps its tape's one-block workspace, at most 2.6 MiB for any
#: bundled app at 256 ranks, however many configurations a call has.
_TAPE_CACHE: LruDict = LruDict(16, eviction_counter="replay.tape.evictions")


def _flat_columns(trace: BurstTrace) -> EventColumns:
    """Each rank's period tiled ``repeats`` times, copy ``k`` offsetting
    every request id by ``k * (max id + 1)`` of its rank: the ids a rank
    numbering its requests across iterations would use."""
    c = trace.columns
    length = np.diff(c.offsets)
    offsets = np.concatenate(([0], np.cumsum(length * trace.repeats)))
    rank = np.repeat(np.arange(c.n_ranks), length * trace.repeats)
    copy, at = np.divmod(np.arange(offsets[-1]) - offsets[rank],
                         length[rank])
    row = c.offsets[rank] + at
    top = np.full(c.n_ranks, -1, dtype=np.int64)
    np.maximum.at(top, c.event_ranks(), c.request)
    request = c.request[row]
    request = np.where(request >= 0, request + copy * (top[rank] + 1), -1)
    return EventColumns(c.kind[row], c.peer[row], c.tag[row], c.size[row],
                        request, c.phase[row], offsets)


def _tape_for(trace: BurstTrace, net: NetworkConfig) -> Optional[_Tape]:
    """The cached tape for ``(trace, net)``, or ``None`` for the scalar
    fallback (counted under ``replay.batch.array_fallbacks`` when the
    trace is order-free, i.e. its tape build bailed out).

    A periodic trace's tape covers one period, or, when the period is
    not message-balanced, the flat stream of :func:`_flat_columns`
    (never for an app generator's trace).  Every bail-out
    condition of a period persists in its repetition, so a period that
    cannot be built is not retried as the full trace.
    """
    key = (id(trace), net)
    entry = _TAPE_CACHE.get(key)
    if entry is None or entry[0] is not trace:
        verdict = _classify(trace, net)
        tape = None
        if verdict is not None:
            built = trace
            if verdict[2] < trace.repeats:
                # Not message-balanced: the tape covers the flat stream.
                # Its keys and protocols are the period's, so it
                # classifies as order-free too.
                built = BurstTrace(trace.app, _flat_columns(trace),
                                   trace.phases)
                verdict = _classify(built, net)
            p2p_key, eager, reps = verdict
            tape = _build_tape(built.columns, built.phases, net, p2p_key,
                               eager, reps)
            get_metrics().inc("replay.tape.builds")
        entry = _TAPE_CACHE[key] = (trace, tape, verdict is not None)
    if entry[1] is None and entry[2]:
        get_metrics().inc("replay.batch.array_fallbacks")
    return entry[1]


def _workspace(tape: _Tape, n: int, w: int) -> Tuple[np.ndarray, ...]:
    """The tape's ``(arr_buf, post_buf, clock, link_free, scratch)`` for
    a ``w``-column block: contiguous row ranges of one ``(rows, w)``
    view on the tape's cached buffer.

    The buffer only grows, to the widest block the tape has run, so
    calls whose column counts differ (a sweep's full and remainder
    shards) reuse its pages instead of refaulting a new allocation.
    Growth is counted under ``replay.tape.workspace_bytes``.
    """
    arr_size, post_size = tape.n_msgs
    a, p = arr_size, arr_size + post_size
    rows = p + 3 * n
    if tape.ws is None or tape.ws.size < rows * w:
        tape.ws = np.empty(rows * w)
        get_metrics().inc("replay.tape.workspace_bytes", tape.ws.nbytes)
    v = tape.ws[:rows * w].reshape(rows, w)
    return v[:a], v[a:p], v[p:p + n], v[p + n:p + 2 * n], v[p + 2 * n:]


def _run_array_tape(
    tape: _Tape,
    net: NetworkConfig,
    phase_duration: BatchPhaseDurationFn,
    n: int,
    n_cols: int,
) -> np.ndarray:
    """Order-free driver: level-batched NumPy execution of the tape.

    Valid only for order-free traces (:func:`_classify`).  Runs the
    tape's groups once per period, each the identical float64 operation
    sequence the scalar core performs per event on a rank's clock — the
    redundant ``max(x, clock)`` clamps the scalar blocked/resumed paths
    apply are exact no-ops there (``x >= clock`` always holds at those
    points), so dropping them changes no bits.  Returns each column's
    makespan, the scalar ``total_ns``: the per-rank time breakdown is
    not tracked.

    Columns never interact — every kernel op is element-wise over the
    config axis and a collective is a per-column max — so the driver
    runs the whole tape over blocks of at most :data:`_BLOCK_COLS`
    columns, each from zeroed state, and its workspace holds one block
    (:func:`_workspace`) however many columns the call has.

    The state is two ``(ranks, block)`` matrices, ``clock`` and
    ``link_free``, plus one scratch matrix.  Every group kernel reads
    its consumed buffer block as a slice view and writes the result
    into ``clock`` in place through ``out=`` (at paper scale a chained
    float64 temporary costs more in allocator and fault traffic than
    the arithmetic it carries); only producers pay a fancy-index
    scatter.  A group that covers every rank works on the state itself;
    a partial one — rare outside warmup levels — on its gathered rows,
    scattered back after.  In-place ufuncs change no result: each
    kernel applies the same ops, in the same order, to the same operand
    values, element-wise.
    """
    ov = net.overhead_ns
    # Durations and collective costs are per call, not per period or
    # block: build and check each compute group's (members, configs)
    # matrix, and price each collective, once.  A group whose members
    # share one transfer time (every group of the bundled apps) adds
    # it as a float, which costs a third of broadcasting the
    # ``(members, 1)`` column and adds the same floats.
    args, tts = [], []
    for kind, _, _, _, _, tt2, pl in tape.groups:
        if tt2 is not None and (tt2 == tt2[0, 0]).all():
            tt2 = float(tt2[0, 0])
        tts.append(tt2)
        arg = None
        if kind == _K_COMPUTE:
            arg = np.empty((len(pl), n_cols))
            for j, (rank, ph) in enumerate(pl):
                arg[j] = phase_duration(rank, ph)
            if not (np.isfinite(arg).all() and arg.min() >= 0):
                raise ValueError(
                    "phase duration must be finite and non-negative")
        elif kind == _K_COLL:
            arg = collective_cost_ns(pl[0], n, pl[1], net)
        args.append(arg)

    total = np.empty(n_cols)
    for lo in range(0, n_cols, _BLOCK_COLS):
        hi = min(lo + _BLOCK_COLS, n_cols)
        # Only the state needs zeroing; every buffer row is written by
        # its producer group before its reader group reads it (the DAG
        # leveling guarantees the order), so the message buffers carry
        # over uninitialized.
        arr_buf, post_buf, clock, link_free, ws = _workspace(tape, n,
                                                             hi - lo)
        clock.fill(0.0)
        link_free.fill(0.0)
        blk = [a[:, lo:hi] if type(a) is np.ndarray else a for a in args]
        for _ in range(tape.reps):
            for (kind, rr, widx, rsl, rsl2, _, _), arg, tt2 in zip(
                    tape.groups, blk, tts):
                if kind == _K_COLL:  # enter clocks frozen: all ranks parked
                    done_row = clock.max(axis=0)
                    np.add(done_row, arg, out=done_row)
                    clock[:] = done_row
                    continue
                full = type(rr) is slice
                c = clock[rr]  # the state itself when ``full``, else a copy
                if kind == _K_COMPUTE:
                    np.add(c, arg, out=c)
                elif kind in (_K_EAGER_SEND, _K_RDV_SEND):
                    lf = link_free[rr]
                    np.add(c, ov, out=c)                      # ready
                    if kind == _K_EAGER_SEND:
                        np.maximum(c, lf, out=lf)             # start
                        np.add(lf, tt2, out=lf)               # arrival
                    else:
                        np.maximum(c, post_buf[rsl], out=c)
                        np.maximum(c, lf, out=c)              # start
                        np.add(c, tt2, out=lf)                # arrival
                    for tgt, src in widx:
                        arr_buf[tgt] = lf if src is None else lf[src]
                    if not full:
                        link_free[rr] = lf
                elif kind == _K_RECV_EAGER:
                    np.add(c, tt2, out=c)                     # post + transfer
                    np.maximum(arr_buf[rsl], c, out=c)
                elif kind == _K_IRECV_POST:
                    post_buf[widx] = c
                    np.add(c, ov, out=c)
                elif kind == _K_RDV_POST:
                    post_buf[widx] = c
                elif kind == _K_RDV_COMPLETE:
                    np.copyto(c, arr_buf[rsl])
                elif kind == _K_WAIT_ARR:
                    np.maximum(arr_buf[rsl], c, out=c)
                else:  # _K_WAIT_EAGER
                    w = ws[:len(c)]
                    np.add(post_buf[rsl2], tt2, out=w)
                    np.maximum(arr_buf[rsl], w, out=w)        # buffered value
                    np.maximum(w, c, out=c)
                if not full:
                    clock[rr] = c
        np.max(clock, axis=0, out=total[lo:hi])
    return total


def _run_scalar(
    trace: BurstTrace,
    net: NetworkConfig,
    phase_duration: BatchPhaseDurationFn,
    n_configs: int,
) -> np.ndarray:
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

    return np.array([replay(trace, net,
                            lambda r, p, _c=c: column(r, p)[_c]).total_ns
                     for c in range(n_configs)], dtype=np.float64)


def replay_batch(
    trace: BurstTrace,
    net: NetworkConfig,
    phase_duration: BatchPhaseDurationFn,
    n_configs: int,
) -> np.ndarray:
    """Replay ``trace`` for ``n_configs`` configurations in one pass.

    ``phase_duration(rank, phase)`` returns the phase's duration as a
    float64 column over the configuration axis.  Returns one float64
    makespan per configuration, bit-identical to ``replay(trace, net,
    scalar_fn_i).total_ns`` with ``scalar_fn_i`` reading column ``i`` —
    on the array tape when the trace is order-free and its tape builds,
    otherwise because that is literally what the scalar fallback runs
    (and a structural deadlock raises the scalar diagnostic).  The
    per-rank breakdown is the scalar :func:`replay`'s alone.

    Counters: ``replay.batch.array_events`` (config-events priced by
    the tape), ``replay.batch.driver.{array,scalar}`` (the path this
    call actually ran), ``replay.batch.array_fallbacks`` (tape build
    bail-outs), and scalar-equivalent ``replay.events`` /
    ``replay.messages`` totals.
    """
    if n_configs <= 0:
        raise ValueError("n_configs must be positive")
    obs = get_metrics()
    tape = _tape_for(trace, net)
    with obs.span("replay.batch.run"):
        if tape is None:
            obs.inc("replay.batch.driver.scalar")
            return _run_scalar(trace, net, phase_duration, n_configs)
        total = _run_array_tape(tape, net, phase_duration, trace.n_ranks,
                                n_configs)
        obs.inc("replay.batch.driver.array")
        obs.inc("replay.batch.array_events", tape.n_events * n_configs)
        obs.inc("replay.events", tape.n_events * n_configs)
        obs.inc("replay.messages", tape.n_messages * n_configs)
        return total
