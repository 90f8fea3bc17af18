"""OpenMP/OmpSs construct builders.

The tracing extension described in Sec. III added support for classic
``parallel for`` worksharing (on top of the existing task support) plus
``omp critical``.  These helpers build :class:`ComputePhase` records the
way the extended tracer would emit them:

* :func:`parallel_for` — a worksharing loop becomes one task per chunk
  with an implicit barrier;
* :func:`task_phase` — an OmpSs task region with explicit dependencies.

Every phase ends in a barrier (taskwait or the loop's implicit one).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..trace.events import ComputePhase, TaskRecord

__all__ = [
    "parallel_for",
    "task_phase",
    "imbalanced_durations",
]


def imbalanced_durations(
    n_tasks: int,
    mean_ns: float,
    imbalance: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-task durations with a controlled load-imbalance level.

    ``imbalance`` follows the usual metric ``max/mean - 1``: 0 gives
    perfectly uniform tasks, 0.5 makes the slowest task 50% longer than
    the mean.  Durations are lognormal-ish (positive, right-skewed) and
    rescaled so the sample satisfies the target max/mean exactly.
    """
    if n_tasks <= 0:
        raise ValueError("n_tasks must be positive")
    if mean_ns <= 0:
        raise ValueError("mean_ns must be positive")
    if imbalance < 0:
        raise ValueError("imbalance must be non-negative")
    if imbalance == 0 or n_tasks == 1:
        return np.full(n_tasks, mean_ns)
    raw = rng.lognormal(mean=0.0, sigma=0.3, size=n_tasks)
    raw /= raw.mean()
    # Affine map so mean stays 1 and max becomes 1 + imbalance.
    mx = raw.max()
    if mx > 1.0:
        alpha = imbalance / (mx - 1.0)
        raw = 1.0 + (raw - 1.0) * alpha
    raw = np.maximum(raw, 0.05)
    raw /= raw.mean()
    return raw * mean_ns


def parallel_for(
    phase_id: int,
    kernel: str,
    n_iterations: int,
    iter_ns: float,
    chunk: Optional[int] = None,
    n_threads_traced: int = 48,
    imbalance: float = 0.0,
    creation_ns: float = 150.0,
    serial_ns: float = 0.0,
    critical_ns: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> ComputePhase:
    """``#pragma omp parallel for`` as a phase of chunk tasks.

    With ``chunk=None`` the static default is used: the iteration space
    is split into ``n_threads_traced`` chunks (the thread count of the
    *traced* run — the trace fixes the chunking; re-simulation with more
    cores cannot create parallelism that is not in the trace, which is
    exactly the paper's Fig. 2/3 starvation effect).
    """
    if n_iterations <= 0:
        raise ValueError("n_iterations must be positive")
    if iter_ns <= 0:
        raise ValueError("iter_ns must be positive")
    if chunk is None:
        chunk = max(1, math.ceil(n_iterations / n_threads_traced))
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    n_tasks = math.ceil(n_iterations / chunk)
    sizes = np.full(n_tasks, chunk, dtype=np.int64)
    sizes[-1] = n_iterations - chunk * (n_tasks - 1)
    rng = rng if rng is not None else np.random.default_rng(phase_id)
    factors = imbalanced_durations(n_tasks, 1.0, imbalance, rng)
    tasks = tuple(
        TaskRecord(
            kernel=kernel,
            duration_ns=float(sizes[i] * iter_ns * factors[i]),
            work_units=float(sizes[i]),
        )
        for i in range(n_tasks)
    )
    return ComputePhase(
        phase_id=phase_id,
        tasks=tasks,
        serial_ns=serial_ns,
        creation_ns=creation_ns,
        critical_ns=critical_ns,
    )


def task_phase(
    phase_id: int,
    kernel: str,
    n_tasks: int,
    task_ns: float,
    deps: Sequence[Tuple[int, ...]] = (),
    imbalance: float = 0.0,
    creation_ns: float = 300.0,
    serial_ns: float = 0.0,
    serial_task_ns: float = 0.0,
    rng: Optional[np.random.Generator] = None,
) -> ComputePhase:
    """An OmpSs/OpenMP task region with optional explicit dependencies.

    ``serial_task_ns`` prepends a *serialized compute segment*: a single
    task every other task depends on.  Unlike ``serial_ns`` (runtime
    overhead at fixed wall-clock cost), a serial segment is application
    code — it re-times with the simulated architecture and occupies one
    core while the rest idle (the paper's Sec. V-A "important serialized
    execution segments").
    """
    if n_tasks <= 0:
        raise ValueError("n_tasks must be positive")
    if task_ns <= 0:
        raise ValueError("task_ns must be positive")
    if deps and len(deps) != n_tasks:
        raise ValueError("deps must be empty or have one entry per task")
    if serial_task_ns < 0:
        raise ValueError("serial_task_ns must be non-negative")
    rng = rng if rng is not None else np.random.default_rng(phase_id)
    factors = imbalanced_durations(n_tasks, 1.0, imbalance, rng)
    offset = 1 if serial_task_ns > 0 else 0
    tasks = []
    if serial_task_ns > 0:
        tasks.append(TaskRecord(
            kernel=kernel,
            duration_ns=float(serial_task_ns),
            work_units=float(serial_task_ns / task_ns),
        ))
    for i in range(n_tasks):
        if deps:
            task_deps = tuple(d + offset for d in deps[i])
        elif offset:
            task_deps = (0,)
        else:
            task_deps = ()
        tasks.append(TaskRecord(
            kernel=kernel,
            duration_ns=float(task_ns * factors[i]),
            deps=task_deps,
            work_units=1.0,
        ))
    return ComputePhase(
        phase_id=phase_id,
        tasks=tuple(tasks),
        serial_ns=serial_ns,
        creation_ns=creation_ns,
    )
