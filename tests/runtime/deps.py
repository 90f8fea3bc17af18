"""Dependency topologies for building test phases with ``task_phase``."""

from typing import Tuple


def pipeline_deps(n_stages: int, width: int) -> Tuple[Tuple[int, ...], ...]:
    """Dependencies of a ``width``-wide, ``n_stages``-deep pipeline.

    Task ``(s, w)`` (index ``s*width + w``) depends on ``(s-1, w)`` —
    per-lane chains, as in per-zone solver sweeps (BT-MZ/SP-MZ style).
    """
    if n_stages <= 0 or width <= 0:
        raise ValueError("n_stages and width must be positive")
    deps = []
    for s in range(n_stages):
        for w in range(width):
            deps.append(() if s == 0 else ((s - 1) * width + w,))
    return tuple(deps)


def wavefront_deps(rows: int, cols: int) -> Tuple[Tuple[int, ...], ...]:
    """Dependencies of a 2-D wavefront: (i,j) waits on (i-1,j) and (i,j-1).

    The classic diagonal-sweep pattern of the NAS SP/BT solvers: the
    available parallelism grows and shrinks along anti-diagonals, capping
    mean concurrency well below ``rows*cols``.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    deps = []
    for i in range(rows):
        for j in range(cols):
            d = []
            if i > 0:
                d.append((i - 1) * cols + j)
            if j > 0:
                d.append(i * cols + (j - 1))
            deps.append(tuple(d))
    return tuple(deps)
