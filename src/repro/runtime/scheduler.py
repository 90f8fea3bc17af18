"""Discrete-event simulation of the node-level runtime system.

MUSA re-simulates the OmpSs/OpenMP runtime for an arbitrary core count
by replaying the runtime events recorded in the burst trace: task
creations, dependencies, barriers and critical sections.  This module
implements that replay as greedy list scheduling:

* the master thread runs the phase's serial section, then creates tasks
  one by one paying a per-task creation overhead (wall-clock ns — these
  timings come from the native trace and do not scale with simulated
  frequency, see Sec. V-B5 of the paper);
* a task becomes ready once created and with all dependencies finished;
* idle cores greedily pick the ready task with the earliest ready time
  (FIFO, like Nanos++);
* ``omp critical`` time is serialized across the whole phase;
* if the phase ends in a barrier, every core waits for the makespan.

The returned :class:`PhaseResult` carries the makespan, per-core busy
times and (optionally) the full task timeline used for the Fig. 3
occupancy analysis.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import get_metrics
from ..trace.events import ComputePhase
from ..util import LruDict

__all__ = ["PhaseBatch", "PhaseResult", "simulate_phase",
           "simulate_phase_batch"]


@dataclass(frozen=True)
class TaskSpan:
    """Execution record of one task: which core ran it and when."""

    task_index: int
    core: int
    start_ns: float
    end_ns: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of simulating one compute phase on ``n_cores`` cores."""

    makespan_ns: float
    busy_ns: np.ndarray          # per-core busy time (len == n_cores)
    n_tasks: int
    serial_ns: float
    creation_ns_total: float
    spans: Optional[Tuple[TaskSpan, ...]] = None

    @property
    def n_cores(self) -> int:
        return len(self.busy_ns)

    @property
    def occupancy(self) -> float:
        """Fraction of core-time spent executing tasks (Fig. 3 metric)."""
        if self.makespan_ns <= 0:
            return 1.0
        return float(self.busy_ns.sum() / (self.n_cores * self.makespan_ns))

    @property
    def idle_ns(self) -> float:
        """Aggregate idle core-time inside the phase (leakage waste)."""
        return float(self.n_cores * self.makespan_ns - self.busy_ns.sum())


#: id(phase) -> (structure tag or None, phase) — the phase reference is
#: kept so a garbage-collected phase cannot alias a recycled id().
#: LRU-bounded (one entry per distinct phase object; applications hold a
#: few dozen phases) so synthetic tests churning phases neither leak nor
#: — as the old wipe-at-capacity dict did — drop the hot working set and
#: pin 4096 stale phases alive until the next wipe.  Evictions are
#: counted under ``sched.structure.evictions``.
_STRUCTURE_CACHE: LruDict = LruDict(
    1024, eviction_counter="sched.structure.evictions")


def _structure_of(phase: ComputePhase) -> Optional[str]:
    """Classify the dependency structure of a phase, if specializable.

    Two shapes cover every trace the application models emit and admit
    an exact shortcut of the general list scheduler (see
    :func:`_simulate_fast`):

    * ``"nodeps"`` — every task is immediately ready once created;
    * ``"fanout0"`` — task 0 has no dependencies and every other task
      depends exactly on task 0 (producer/consumer fan-out).

    Anything else returns ``None`` and takes the general path.
    """
    key = id(phase)
    hit = _STRUCTURE_CACHE.get(key)
    if hit is not None and hit[1] is phase:
        return hit[0]
    tasks = phase.tasks
    structure: Optional[str] = None
    if all(not t.deps for t in tasks):
        structure = "nodeps"
    elif tasks and not tasks[0].deps and all(
            t.deps == (0,) for t in tasks[1:]):
        structure = "fanout0"
    _STRUCTURE_CACHE[key] = (structure, phase)
    return structure


def _simulate_fast(structure: str, n: int, n_cores: int, durations,
                   create_time, master_done: float, serial: float,
                   creation: float, critical_total: float,
                   busy: np.ndarray) -> PhaseResult:
    """Specialized greedy scheduler for the two common dependency shapes.

    Bitwise-identical to the general algorithm: for both shapes the
    ready heap provably pops tasks in index order (ready times are
    nondecreasing in the task index and ties break on the index), so
    the ready heap is elided and only the core heap is kept.  The same
    heap operations run in the same order, producing the same floats.
    """
    cores: List[Tuple[float, int]] = [(0.0, c) for c in range(n_cores)]
    cores[0] = (master_done, 0)
    heapq.heapify(cores)
    busy[0] += master_done

    makespan = master_done
    start_index = 0
    if structure == "fanout0":
        # Task 0 runs alone; its finish gates every other task.
        free_time, core = heapq.heappop(cores)
        rt = create_time[0]
        start = rt if rt > free_time else free_time
        end0 = start + durations[0]
        busy[core] += durations[0]
        heapq.heappush(cores, (end0, core))
        if end0 > makespan:
            makespan = end0
        start_index = 1
    else:
        end0 = 0.0

    for i in range(start_index, n):
        rt = create_time[i]
        if structure == "fanout0" and end0 > rt:
            rt = end0
        free_time, core = heapq.heappop(cores)
        start = rt if rt > free_time else free_time
        end = start + durations[i]
        busy[core] += durations[i]
        heapq.heappush(cores, (end, core))
        if end > makespan:
            makespan = end

    makespan = max(makespan, serial + critical_total)
    return PhaseResult(
        makespan_ns=makespan,
        busy_ns=busy,
        n_tasks=n,
        serial_ns=serial,
        creation_ns_total=n * creation,
        spans=None,
    )


def simulate_phase(
    phase: ComputePhase,
    n_cores: int,
    duration_scale: float = 1.0,
    overhead_scale: float = 1.0,
    task_durations_ns: Optional[Sequence[float]] = None,
    collect_spans: bool = False,
    _force_general: bool = False,
) -> PhaseResult:
    """Simulate one compute phase on ``n_cores`` cores.

    Parameters
    ----------
    duration_scale:
        Multiplier applied to every task duration (used by the detailed
        integration to re-time tasks for a target architecture, and by
        rank-level imbalance).
    overhead_scale:
        Multiplier for runtime overheads (serial, creation, critical).
        Kept separate because runtime timings are wall-clock and do not
        follow core frequency.
    task_durations_ns:
        Optional explicit per-task durations overriding the trace
        reference values (after which ``duration_scale`` still applies).
    collect_spans:
        If True, record per-task (core, start, end) for timeline
        analysis; costs memory, off by default for the sweep.
    _force_general:
        Skip the structure-specialized fast path (testing hook; the two
        paths are asserted bitwise-equal by the property suite).
    """
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    if duration_scale <= 0 or overhead_scale <= 0:
        raise ValueError("scales must be positive")

    tasks = phase.tasks
    n = len(tasks)
    serial = phase.serial_ns * overhead_scale
    creation = phase.creation_ns * overhead_scale
    critical_total = phase.critical_ns * overhead_scale

    if task_durations_ns is not None:
        if len(task_durations_ns) != n:
            raise ValueError(
                f"expected {n} durations, got {len(task_durations_ns)}"
            )
        durations = [d * duration_scale for d in task_durations_ns]
    else:
        durations = [t.duration_ns * duration_scale for t in tasks]
    if not all(0.0 <= d < math.inf for d in durations):
        raise ValueError("task durations must be finite and non-negative")

    busy = np.zeros(n_cores, dtype=np.float64)
    if n == 0:
        makespan = serial + critical_total
        return PhaseResult(makespan, busy, 0, serial, 0.0,
                           spans=() if collect_spans else None)

    # Task i is created at serial + (i+1)*creation by the master thread.
    create_time = [serial + (i + 1) * creation for i in range(n)]
    master_done = create_time[-1]

    if not collect_spans and not _force_general:
        structure = _structure_of(phase)
        if structure is not None:
            return _simulate_fast(structure, n, n_cores, durations,
                                  create_time, master_done, serial,
                                  creation, critical_total, busy)

    # Dependency bookkeeping: children lists and remaining-dep counters.
    n_deps = [len(t.deps) for t in tasks]
    children: List[List[int]] = [[] for _ in range(n)]
    for i, t in enumerate(tasks):
        for d in t.deps:
            children[d].append(i)

    dep_finish = [0.0] * n         # latest finish among resolved deps
    finish_time = [0.0] * n

    # Ready heap: (ready_time, task index).  Cores heap: (free_time, core).
    ready: List[Tuple[float, int]] = []
    for i in range(n):
        if n_deps[i] == 0:
            heapq.heappush(ready, (create_time[i], i))

    cores: List[Tuple[float, int]] = [(0.0, c) for c in range(n_cores)]
    # The master (core 0) is busy until it finishes creating tasks.
    cores[0] = (master_done, 0)
    heapq.heapify(cores)
    busy[0] += master_done  # serial + creation work occupies the master

    spans: List[TaskSpan] = []
    n_done = 0
    makespan = master_done
    while n_done < n:
        if not ready:
            raise RuntimeError(
                "scheduler deadlock: no ready tasks but work remains "
                "(dependency cycle in trace?)"
            )
        ready_time, i = heapq.heappop(ready)
        free_time, core = heapq.heappop(cores)
        start = max(ready_time, free_time)
        end = start + durations[i]
        finish_time[i] = end
        busy[core] += durations[i]
        heapq.heappush(cores, (end, core))
        if collect_spans:
            spans.append(TaskSpan(i, core, start, end))
        makespan = max(makespan, end)
        n_done += 1
        for child in children[i]:
            n_deps[child] -= 1
            dep_finish[child] = max(dep_finish[child], end)
            if n_deps[child] == 0:
                heapq.heappush(
                    ready, (max(create_time[child], dep_finish[child]), child)
                )

    # Critical sections serialize: the phase cannot finish before the
    # sum of all critical time has elapsed after the serial section.
    makespan = max(makespan, serial + critical_total)

    return PhaseResult(
        makespan_ns=makespan,
        busy_ns=busy,
        n_tasks=n,
        serial_ns=serial,
        creation_ns_total=n * creation,
        spans=tuple(spans) if collect_spans else None,
    )




@dataclass(frozen=True)
class PhaseBatch:
    """Per-lane columns of :func:`simulate_phase_batch`: entry ``k``
    holds the scalar :class:`PhaseResult`'s floats for lane ``k``
    (``busy_sum_ns[k]`` is its ``float(busy_ns.sum())``)."""

    makespan_ns: np.ndarray        # (lanes,)
    serial_ns: np.ndarray          # (lanes,)
    creation_ns_total: np.ndarray  # (lanes,)
    busy_sum_ns: np.ndarray        # (lanes,)
    busy_ns: np.ndarray            # (lanes, max cores), zero-padded
    n_tasks: np.ndarray            # (lanes,), int64


def _lane_phases(phase: Union[ComputePhase, Sequence[ComputePhase]],
                 n_lanes: int) -> Tuple[List[ComputePhase], np.ndarray]:
    """The distinct phases of a call and each lane's index into them."""
    if isinstance(phase, ComputePhase):
        return [phase], np.zeros(n_lanes, dtype=np.int64)
    phases = list(phase)
    if len(phases) != n_lanes:
        raise ValueError(f"expected {n_lanes} phases, got {len(phases)}")
    ids = np.fromiter(map(id, phases), dtype=np.uint64, count=n_lanes)
    _, first, idx = np.unique(ids, return_index=True, return_inverse=True)
    return [phases[i] for i in first], idx.astype(np.int64, copy=False)


def simulate_phase_batch(
    phase: Union[ComputePhase, Sequence[ComputePhase]],
    n_cores: Sequence[int],
    duration_scale: Union[float, Sequence[float]] = 1.0,
    overhead_scale: Union[float, Sequence[float]] = 1.0,
    task_durations_ns: Optional[np.ndarray] = None,
) -> PhaseBatch:
    """:func:`simulate_phase` over an axis of *lanes*, vectorized.

    A lane is one scalar call: ``phase`` is one phase shared by every
    lane or a sequence of one phase per lane, and ``n_cores`` /
    ``duration_scale`` / ``overhead_scale`` give one value (or a
    broadcastable scalar) per lane.  ``task_durations_ns`` is an
    optional ``(rows, lanes)`` matrix of explicit per-task durations (or
    a 1-D base shared by every lane, like the scalar call), where
    ``rows`` is the largest task count among the lanes' phases; lane
    ``k`` reads its first ``n_k`` rows and the rest is padding.
    Durations must be finite and non-negative, like the scalar call's.

    Bitwise-identity argument.  A per-lane *result broadcast* — run
    the schedule once on base durations and multiply the output times by
    each lane's scale — can never be bitwise: float multiplication
    does not distribute over addition, so ``fl(s*a) + fl(s*b)`` differs
    from ``s*(a+b)`` in the last ulp for general ``s``.  What *is*
    exactly lane-invariant for the ``nodeps``/``fanout0`` structures
    is the scheduler's **task visit order**: ready times are
    nondecreasing in the task index for any non-negative durations and
    overheads (``nodeps``: ready = creation times, an increasing
    sequence; ``fanout0``: task 0 first, then
    ``max(create_time[i], end0)``, nondecreasing in ``i``), and ties
    break on the index — so every lane visits tasks 0..n-1 in index
    order, exactly as :func:`_simulate_fast` does.  That lets all
    lanes advance through one synchronized per-task loop in which the
    per-lane core state is exact, not broadcast:

    * each lane's ready times form one column of a ``(rows, lanes)``
      matrix: creation times, gated by task 0's finish ``end0`` for
      ``fanout0`` lanes (``end0 = create_time[0] + duration[0]``: task 0
      finds a core free at 0 whenever the lane has two or more, and on
      one core the gate never binds), so both shapes share the loop;
    * a padded row (``i >= n_k``) has ready time ``-inf`` and duration
      0: it starts on its core's free time and ends there, adding 0 to
      the core's busy time — exactly a no-op;
    * the core heap's pop (min ``(free_time, core)``, ties to the lowest
      core index) is an ``argmin`` over a per-lane row of core free
      times (NumPy ``argmin`` returns the first occurrence — the same
      tie-break);
    * ``start``/``end``/``busy`` updates are the same float64 operations
      on the same operands, elementwise across the lane axis.

    **First wave.**  When a lane's ``serial + creation > 0`` every
    ready time is positive, so ``master_done`` and every finished
    task's end are positive too, while cores ``1..nc-1`` sit idle at
    exactly 0: task ``i < min(n, nc - 1)`` pops idle core ``i + 1`` and
    starts at its ready time.  Those cells are written in one masked
    array operation.  Only lanes with no idle core left take the
    per-task ``argmin`` loop; lanes are sorted by the task at which they
    join it, so at task ``i`` the joined lanes are a prefix and the
    ``argmin`` runs over that prefix's rows and widest core count only.
    With ``serial = creation = 0`` core 0 is free at 0 too and the first
    wave does not apply: such lanes join the loop at task 0.

    Every core count runs in the same pass: the free/busy matrices are
    ``(lanes, max cores)`` and a core a lane does not have starts
    free at ``+inf``, so ``argmin`` never picks it and the tie-break
    over its real cores is unchanged.  Free times never decrease
    (durations are non-negative), so a lane's makespan is the maximum of
    its real cores' final free times — the scalar running maximum.
    Busy sums are reduced over each lane's real cores only (one
    reduction per core-count group): NumPy's pairwise summation tree
    depends on the length, so summing the zero-padded row would differ
    in the last ulp.

    Each lane therefore reproduces the scalar heap schedule float for
    float.  Phases with any other dependency structure — and lanes
    whose ``overhead_scale`` differs from ``duration_scale``, which the
    scale-invariance contract of the batched sweep does not cover — fall
    back to per-lane :func:`simulate_phase` calls that fill the same
    columns.  Vectorized lanes are counted under ``sched.batch.fast``;
    fallback lanes under ``sched.batch.fallbacks``.
    """
    nc = np.asarray(n_cores, dtype=np.int64)
    if nc.ndim != 1:
        raise ValueError("n_cores must be 1-D")
    n_lanes = len(nc)
    if np.any(nc <= 0):
        raise ValueError("n_cores must be positive")
    ds = np.broadcast_to(np.asarray(duration_scale, dtype=np.float64),
                         (n_lanes,)).copy()
    os_ = np.broadcast_to(np.asarray(overhead_scale, dtype=np.float64),
                          (n_lanes,)).copy()
    if np.any(ds <= 0) or np.any(os_ <= 0):
        raise ValueError("scales must be positive")

    phases, pidx = _lane_phases(phase, n_lanes)
    n_of = np.array([len(p.tasks) for p in phases], dtype=np.int64)
    n_task = n_of[pidx]
    rows = int(n_of.max()) if len(phases) else 0
    real = np.arange(rows)[:, None] < n_task
    if task_durations_ns is not None:
        base = np.asarray(task_durations_ns, dtype=np.float64)
        if base.ndim == 1:
            base = base[:, None]
        if (base.ndim != 2 or base.shape[0] != rows
                or base.shape[1] not in (1, n_lanes)):
            raise ValueError(
                f"expected ({rows}, {n_lanes}) durations, got {base.shape}")
    else:
        base = np.zeros((rows, len(phases)))
        for j, p in enumerate(phases):
            base[:len(p.tasks), j] = [t.duration_ns for t in p.tasks]
        if len(phases) > 1:
            base = base[:, pidx]
    with np.errstate(over="ignore"):
        dur = np.where(real, base, 0.0) * ds
    if dur.size and not (dur.min() >= 0.0 and dur.max() < np.inf):
        raise ValueError("task durations must be finite and non-negative")

    structure = [_structure_of(p) if p.tasks else None for p in phases]
    # The scalar path returns before looking at structure or scales when
    # a phase has no tasks.
    fast = (n_task == 0) | (
        np.array([s is not None for s in structure])[pidx] & (ds == os_))
    serial = np.array([p.serial_ns for p in phases])[pidx] * os_
    creation = np.array([p.creation_ns for p in phases])[pidx] * os_
    makespan = serial + np.array([p.critical_ns for p in phases])[pidx] * os_
    creation_total = n_task * creation
    busy_sum = np.zeros(n_lanes)
    busy_mat = np.zeros((n_lanes, int(nc.max()) if n_lanes else 0))

    slow = np.flatnonzero(~fast)
    if len(slow):
        get_metrics().inc("sched.batch.fallbacks", len(slow))
        for k in slow:
            n = int(n_task[k])
            col = base[:n, 0] if base.shape[1] == 1 else base[:n, k]
            ref = simulate_phase(
                phases[pidx[k]], int(nc[k]), duration_scale=float(ds[k]),
                overhead_scale=float(os_[k]),
                task_durations_ns=col.tolist())
            makespan[k] = ref.makespan_ns
            serial[k] = ref.serial_ns
            creation_total[k] = ref.creation_ns_total
            busy_sum[k] = ref.busy_ns.sum()
            busy_mat[k, :ref.n_cores] = ref.busy_ns

    out = PhaseBatch(makespan, serial, creation_total, busy_sum, busy_mat,
                     n_task)
    if fast.any():
        get_metrics().inc("sched.batch.fast", int(fast.sum()))
    # Lanes without tasks are done: serial + critical, no busy time.
    cols = np.flatnonzero(fast & (n_task > 0))
    if len(cols) == 0:
        return out

    # Tasks placed by the first wave (create_time[0] = serial + 1 *
    # creation > 0), and the task at which each lane joins the argmin
    # loop (``rows``: never).  Lanes are sorted by it, then by core count.
    n_c = n_task[cols]
    nc_c = nc[cols]
    wave = np.where(1.0 * creation[cols] + serial[cols] > 0.0,
                    np.minimum(n_c, nc_c - 1), 0)
    join = np.where(wave < n_c, wave, rows)
    order = np.lexsort((nc_c, join))
    cols, n_c, nc_c = cols[order], n_c[order], nc_c[order]
    wave, join = wave[order], join[order]
    lane = np.arange(len(cols))

    d = dur[:, cols]
    # create_time[i] = serial + (i+1)*creation, per lane — the same
    # float64 ops as the scalar list comprehension, elementwise.
    create = (np.arange(1, rows + 1, dtype=np.float64)[:, None]
              * creation[cols]) + serial[cols]
    master_done = create[n_c - 1, lane]
    ready = create
    fanout = np.array([s == "fanout0" for s in structure])[pidx[cols]]
    if fanout.any():
        # Task 0 starts at its creation on a core free at 0 (core 1, or
        # core 0 when master_done is 0).  On a single core it waits for
        # master_done instead, but there every task waits for the one
        # before it, which ends no earlier than task 0: the gate never
        # binds, so the same end0 serves.
        end0 = create[0] + d[0]
        ready = create.copy()
        ready[1:] = np.where(fanout & (end0 > create[1:]), end0, create[1:])
    ready[np.arange(rows)[:, None] >= n_c] = -np.inf

    # Cores past a lane's task count stay idle at 0, so the matrices stop
    # at the widest min(cores, tasks + 1); a core the lane does not have
    # is never free, so never picked.
    width = int(np.minimum(nc_c, n_c + 1).max())
    free = np.where(np.arange(width) < nc_c[:, None], 0.0, np.inf)
    free[:, 0] = master_done
    busy = np.zeros((len(cols), width))
    busy[:, 0] += master_done
    top = int(wave.max())
    if top:
        # Task t of a first-wave lane runs on core t + 1 from its ready
        # time: start = ready, end = start + duration, busy = 0 + duration.
        hit = np.arange(top) < wave[:, None]
        free[:, 1:top + 1] = np.where(hit, (ready[:top] + d[:top]).T,
                                      free[:, 1:top + 1])
        busy[:, 1:top + 1] += np.where(hit, d[:top].T, 0.0)

    if join[0] < rows:
        joined = np.searchsorted(join, np.arange(rows), side="right")
        reach = np.maximum.accumulate(nc_c)
        # Core j of lane r is cell r*width + j of the flattened matrices.
        offsets = lane * width
        free_flat = free.reshape(-1)
        busy_flat = busy.reshape(-1)
        for i in range(int(join[0]), rows):
            p = joined[i]
            cell = free[:p, :reach[p - 1]].argmin(axis=1)
            cell += offsets[:p]
            ft = free_flat[cell]
            rt = ready[i, :p]
            start = np.where(rt > ft, rt, ft)
            di = d[i, :p]
            busy_flat[cell] += di
            free_flat[cell] = start + di

    # Reduce each run of equal core counts over exactly its real cores:
    # the pairwise summation tree depends on the length, so a row cut
    # short or padded past the core count would differ.
    full = np.zeros((len(cols), busy_mat.shape[1]))
    full[:, :width] = busy
    span = np.empty(len(cols))
    total = np.empty(len(cols))
    runs = np.flatnonzero(np.diff(nc_c)) + 1
    for lo, hi in zip(np.r_[0, runs], np.r_[runs, len(cols)]):
        c = nc_c[lo]
        span[lo:hi] = free[lo:hi, :c].max(axis=1)
        total[lo:hi] = full[lo:hi, :c].sum(axis=1)
    makespan[cols] = np.maximum(span, makespan[cols])
    busy_sum[cols] = total
    busy_mat[cols] = full
    return out
