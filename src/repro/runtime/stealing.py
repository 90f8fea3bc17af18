"""Work-stealing scheduler variant.

The paper's runtime (Nanos++) uses central ready queues; modern tasking
runtimes steal from per-worker deques instead.  This variant lets the
co-design study ask a *system software* question the paper raises but
does not explore: how much of the observed starvation is scheduling
policy rather than trace-level parallelism?

Semantics: task creation pushes to the creating worker's deque
(round-robin for the master's initial burst); idle workers pop their
own deque LIFO and steal FIFO from victims chosen deterministically.
Steals cost ``steal_ns`` of the thief's time.  The simulation remains
a discrete-event replay of the same checked inputs as
:func:`~repro.runtime.scheduler.simulate_phase` and returns the same
:class:`~repro.runtime.scheduler.PhaseResult`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..trace.events import ComputePhase
from .scheduler import PhaseResult, TaskSpan, _prologue

__all__ = ["simulate_phase_stealing"]


def simulate_phase_stealing(
    phase: ComputePhase,
    n_cores: int,
    steal_ns: float = 120.0,
    collect_spans: bool = False,
) -> PhaseResult:
    """Simulate one phase under work stealing.

    Takes the checked inputs of :func:`simulate_phase` (validation,
    creation times, dependency children); ``steal_ns`` charges each
    successful steal.
    """
    if steal_ns < 0:
        raise ValueError("steal_ns must be non-negative")
    pro = _prologue(phase, n_cores)
    durations, create_time = pro.durations, pro.create_time
    n_deps, children = pro.n_deps, pro.children
    n = len(durations)
    busy = np.zeros(n_cores, dtype=np.float64)
    spans: Optional[List[TaskSpan]] = [] if collect_spans else None

    # Per-worker deques; creation round-robins the master's burst the way
    # an eager-binding runtime distributes initial chunks.
    deques: List[Deque[int]] = [deque() for _ in range(n_cores)]
    release_time = [0.0] * n       # when the task became ready

    # Event queue of (time, kind, payload): kind 0 = task created,
    # kind 1 = core free.  Created tasks with unmet deps wait for their
    # parents; dependency release re-enqueues them.
    events: List[Tuple[float, int, int, int]] = []
    seq = 0
    for i in range(n):
        if n_deps[i] == 0:
            heapq.heappush(events, (create_time[i], 0, seq, i))
            seq += 1
    for c in range(n_cores):
        start = pro.master_done if c == 0 else 0.0
        heapq.heappush(events, (start, 1, seq, c))
        seq += 1
    busy[0] += pro.master_done

    n_done = 0
    makespan = pro.master_done
    idle_since = [None] * n_cores  # cores parked waiting for work
    rr = 0

    def dispatch(core: int, task: int, now: float, stole: bool) -> None:
        nonlocal n_done, makespan, seq
        start = now + (steal_ns if stole else 0.0)
        end = start + durations[task]
        busy[core] += end - start
        if spans is not None:
            spans.append(TaskSpan(task, core, start, end))
        makespan = max(makespan, end)
        n_done += 1
        for child in children[task]:
            n_deps[child] -= 1
            release_time[child] = max(release_time[child], end,
                                      create_time[child])
            if n_deps[child] == 0:
                heapq.heappush(events, (release_time[child], 0, seq, child))
                seq += 1
        heapq.heappush(events, (end, 1, seq, core))
        seq += 1

    def try_find_work(core: int) -> Optional[Tuple[int, bool]]:
        if deques[core]:
            return deques[core].pop(), False      # own deque: LIFO
        for step in range(1, n_cores):
            victim = (core + step) % n_cores
            if deques[victim]:
                return deques[victim].popleft(), True  # steal: FIFO
        return None

    while events and n_done < n:
        now, kind, _, payload = heapq.heappop(events)
        if kind == 0:
            # Task becomes available: push to a deque; wake a parked core.
            task = payload
            target = rr % n_cores
            rr += 1
            woke = False
            for c in range(n_cores):
                core = (target + c) % n_cores
                if idle_since[core] is not None:
                    idle_since[core] = None
                    dispatch(core, task, now, stole=False)
                    woke = True
                    break
            if not woke:
                deques[target].append(task)
        else:
            core = payload
            found = try_find_work(core)
            if found is None:
                idle_since[core] = now
            else:
                task, stole = found
                dispatch(core, task, max(now, release_time[task],
                                         create_time[task]), stole)

    if n_done < n:
        raise RuntimeError("work-stealing scheduler deadlock "
                           "(dependency cycle in trace?)")
    return pro.result(makespan, busy, spans)
