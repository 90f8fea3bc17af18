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
from typing import List, Optional, Sequence, Tuple

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
    """Classify the dependency structure of a phase, if vectorizable.

    Two shapes cover every trace the application models emit, and for
    both the list scheduler visits tasks in index order (see
    :func:`simulate_phase_batch`):

    * ``"nodeps"`` — every task is immediately ready once created;
    * ``"fanout0"`` — task 0 has no dependencies and every other task
      depends exactly on task 0 (producer/consumer fan-out).

    Anything else returns ``None``; the batch scheduler hands such
    phases to :func:`simulate_phase` lane by lane.
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


@dataclass(frozen=True)
class _Prologue:
    """Checked, overhead-scaled inputs of one scalar schedule, shared by
    the list scheduler here and the work-stealing policy.

    Task ``i`` is created at ``create_time[i] = serial + (i+1)*creation``
    (``creation``: the phase's scaled per-task overhead) by the master
    thread, which is busy until ``master_done`` (the last creation; 0
    for a phase without tasks).  ``children[i]`` lists the
    tasks that depend on task ``i`` and ``n_deps[i]`` counts its
    unresolved dependencies (a fresh list per call: the schedulers
    decrement it).
    """

    durations: List[float]
    serial: float
    critical_total: float
    create_time: List[float]
    master_done: float
    n_deps: List[int]
    children: List[List[int]]

    def result(self, makespan: float, busy: np.ndarray,
               spans: Optional[List[TaskSpan]]) -> PhaseResult:
        """Close a schedule: critical sections serialize, so the phase
        cannot finish before the sum of all critical time has elapsed
        after the serial section."""
        n = len(self.durations)
        return PhaseResult(
            makespan_ns=max(makespan, self.serial + self.critical_total),
            busy_ns=busy,
            n_tasks=n,
            serial_ns=self.serial,
            spans=None if spans is None else tuple(spans),
        )


def _prologue(phase: ComputePhase, n_cores: int, overhead_scale: float = 1.0,
              task_durations_ns: Optional[Sequence[float]] = None
              ) -> _Prologue:
    """Validate one scalar call and derive its schedule inputs."""
    if n_cores <= 0:
        raise ValueError("n_cores must be positive")
    if overhead_scale <= 0:
        raise ValueError("overhead_scale must be positive")
    tasks = phase.tasks
    n = len(tasks)
    if task_durations_ns is None:
        durations = [t.duration_ns for t in tasks]
    elif len(task_durations_ns) != n:
        raise ValueError(
            f"expected {n} durations, got {len(task_durations_ns)}")
    else:
        durations = [float(d) for d in task_durations_ns]
    if not all(0.0 <= d < math.inf for d in durations):
        raise ValueError("task durations must be finite and non-negative")
    serial = phase.serial_ns * overhead_scale
    creation = phase.creation_ns * overhead_scale
    create_time = [serial + (i + 1) * creation for i in range(n)]
    children: List[List[int]] = [[] for _ in range(n)]
    for i, t in enumerate(tasks):
        for d in t.deps:
            children[d].append(i)
    return _Prologue(
        durations=durations,
        serial=serial,
        critical_total=phase.critical_ns * overhead_scale,
        create_time=create_time,
        master_done=create_time[-1] if n else 0.0,
        n_deps=[len(t.deps) for t in tasks],
        children=children,
    )


def _list_schedule(pro: _Prologue, speeds: Sequence[float],
                   collect_spans: bool) -> PhaseResult:
    """Greedy list scheduling of one phase on cores of the given speeds.

    The master (core 0) runs the serial section and creates every task,
    so it is busy until the last creation.  Each step pops the ready
    task with the earliest ready time (ties to the lowest index) and the
    core that frees first (ties to the fastest, then the lowest index),
    which runs it for ``duration / speed``.
    """
    durations, create_time = pro.durations, pro.create_time
    n_deps, children = pro.n_deps, pro.children
    n = len(durations)
    dep_finish = [0.0] * n         # latest finish among resolved deps
    spans: Optional[List[TaskSpan]] = [] if collect_spans else None

    # Ready heap: (ready_time, task).  Core heap: (free_time, -speed, core).
    ready: List[Tuple[float, int]] = [
        (create_time[i], i) for i in range(n) if n_deps[i] == 0]
    heapq.heapify(ready)
    cores = [(0.0, -s, c) for c, s in enumerate(speeds)]
    cores[0] = (pro.master_done, -speeds[0], 0)
    heapq.heapify(cores)
    busy = np.zeros(len(speeds), dtype=np.float64)
    busy[0] += pro.master_done

    makespan = pro.master_done
    for _ in range(n):
        if not ready:
            raise RuntimeError(
                "scheduler deadlock: no ready tasks but work remains "
                "(dependency cycle in trace?)"
            )
        ready_time, i = heapq.heappop(ready)
        free_time, neg_speed, core = heapq.heappop(cores)
        start = max(ready_time, free_time)
        dur = durations[i] / -neg_speed
        end = start + dur
        busy[core] += dur
        heapq.heappush(cores, (end, neg_speed, core))
        if spans is not None:
            spans.append(TaskSpan(i, core, start, end))
        makespan = max(makespan, end)
        for child in children[i]:
            n_deps[child] -= 1
            dep_finish[child] = max(dep_finish[child], end)
            if n_deps[child] == 0:
                heapq.heappush(
                    ready, (max(create_time[child], dep_finish[child]), child)
                )
    return pro.result(makespan, busy, spans)


def simulate_phase(
    phase: ComputePhase,
    n_cores: int,
    overhead_scale: float = 1.0,
    task_durations_ns: Optional[Sequence[float]] = None,
    collect_spans: bool = False,
) -> PhaseResult:
    """Simulate one compute phase on ``n_cores`` cores.

    This is the scalar reference the batch scheduler is checked against
    bit for bit: one ready-heap event loop for every dependency shape.

    Parameters
    ----------
    overhead_scale:
        Multiplier for runtime overheads (serial, creation, critical).
        Runtime timings are wall-clock and do not follow core frequency.
    task_durations_ns:
        Optional explicit per-task durations overriding the trace
        reference values (the detailed integration re-times tasks for a
        target architecture this way).  Durations must be finite and
        non-negative.
    collect_spans:
        If True, record per-task (core, start, end) for timeline
        analysis; costs memory, off by default for the sweep.
    """
    pro = _prologue(phase, n_cores, overhead_scale, task_durations_ns)
    # Unit speeds are exact: x / 1.0 == x, and the core heap's -1.0
    # column never breaks a tie, so the order stays (free_time, core).
    return _list_schedule(pro, [1.0] * n_cores, collect_spans)


@dataclass(frozen=True)
class PhaseBatch:
    """Per-lane columns of :func:`simulate_phase_batch`: entry ``k``
    holds the scalar :class:`PhaseResult`'s floats for lane ``k``
    (``busy_sum_ns[k]`` is its ``float(busy_ns.sum())``)."""

    makespan_ns: np.ndarray        # (lanes,)
    serial_ns: np.ndarray          # (lanes,)
    busy_sum_ns: np.ndarray        # (lanes,)
    busy_ns: np.ndarray            # (lanes, max cores), zero-padded
    n_tasks: np.ndarray            # (lanes,), int64


def _lane_phases(phases: Sequence[ComputePhase],
                 n_lanes: int) -> Tuple[List[ComputePhase], np.ndarray]:
    """The distinct phases of a call and each lane's index into them."""
    phases = list(phases)
    if len(phases) != n_lanes:
        raise ValueError(f"expected {n_lanes} phases, got {len(phases)}")
    ids = np.fromiter(map(id, phases), dtype=np.uint64, count=n_lanes)
    _, first, idx = np.unique(ids, return_index=True, return_inverse=True)
    return [phases[i] for i in first], idx.astype(np.int64, copy=False)


def simulate_phase_batch(
    phases: Sequence[ComputePhase],
    n_cores: Sequence[int],
    task_durations_ns: np.ndarray,
) -> PhaseBatch:
    """:func:`simulate_phase` over an axis of *lanes*, vectorized.

    A lane is one scalar call ``simulate_phase(phases[k], n_cores[k],
    task_durations_ns=task_durations_ns[:n_k, k])``: ``phases`` holds
    one phase per lane and ``task_durations_ns`` is a ``(rows, lanes)``
    matrix of per-task durations, where ``rows`` is the largest task
    count among the lanes' phases; lane ``k`` reads its first ``n_k``
    rows and the rest is padding.  Durations must be finite and
    non-negative, like the scalar call's.

    Bitwise-identity argument.  What is exactly lane-invariant for the
    ``nodeps``/``fanout0`` structures is the scheduler's **task visit
    order**: ready times are
    nondecreasing in the task index for any non-negative durations and
    overheads (``nodeps``: ready = creation times, an increasing
    sequence; ``fanout0``: task 0 first, then
    ``max(create_time[i], end0)``, nondecreasing in ``i``), and ties
    break on the index — so every lane's ready heap pops tasks 0..n-1
    in index order and only its core heap matters.  That lets all
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
    float.  Phases with any other dependency structure (general DAGs)
    fall back to per-lane :func:`simulate_phase` calls that fill the
    same columns.  Vectorized lanes are counted under ``sched.batch.fast``;
    fallback lanes under ``sched.batch.fallbacks``.
    """
    nc = np.asarray(n_cores, dtype=np.int64)
    if nc.ndim != 1:
        raise ValueError("n_cores must be 1-D")
    n_lanes = len(nc)
    if np.any(nc <= 0):
        raise ValueError("n_cores must be positive")

    phases, pidx = _lane_phases(phases, n_lanes)
    n_of = np.array([len(p.tasks) for p in phases], dtype=np.int64)
    n_task = n_of[pidx]
    rows = int(n_of.max()) if len(phases) else 0
    base = np.asarray(task_durations_ns, dtype=np.float64)
    if base.shape != (rows, n_lanes):
        raise ValueError(
            f"expected ({rows}, {n_lanes}) durations, got {base.shape}")
    dur = np.where(np.arange(rows)[:, None] < n_task, base, 0.0)
    if dur.size and not (dur.min() >= 0.0 and dur.max() < np.inf):
        raise ValueError("task durations must be finite and non-negative")

    # A phase without tasks is "nodeps": serial + critical, no busy time.
    structure = [_structure_of(p) for p in phases]
    fast = np.array([s is not None for s in structure])[pidx]
    serial = np.array([p.serial_ns for p in phases])[pidx]
    creation = np.array([p.creation_ns for p in phases])[pidx]
    makespan = serial + np.array([p.critical_ns for p in phases])[pidx]
    busy_sum = np.zeros(n_lanes)
    busy_mat = np.zeros((n_lanes, int(nc.max()) if n_lanes else 0))

    slow = np.flatnonzero(~fast)
    if len(slow):
        get_metrics().inc("sched.batch.fallbacks", len(slow))
        for k in slow:
            ref = simulate_phase(
                phases[pidx[k]], int(nc[k]),
                task_durations_ns=base[:n_task[k], k].tolist())
            makespan[k] = ref.makespan_ns
            busy_sum[k] = ref.busy_ns.sum()
            busy_mat[k, :ref.n_cores] = ref.busy_ns

    out = PhaseBatch(makespan, serial, busy_sum, busy_mat, n_task)
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
