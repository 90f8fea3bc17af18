"""Synthetic memory address stream generators.

These stand in for the address streams DynamoRIO records from real
binaries.  Each generator returns a 1-D ``int64`` array of *byte*
addresses; :func:`repro.trace.reuse.profile_stream` converts a stream
into a :class:`~repro.trace.kernel.ReuseProfile`, and the exact cache
simulator in :mod:`repro.uarch.cache` can replay it directly.

All generators are deterministic given a seed, vectorized with numpy,
and sized so profiling stays cheap (guides: vectorize, avoid Python
loops over elements).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = [
    "sequential_sweep",
    "random_uniform",
    "stencil1d",
    "interleave",
]

_DOUBLE = 8  # bytes per double-precision element


def _check_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def sequential_sweep(ws_bytes: int, n_sweeps: int = 2,
                     elem_bytes: int = _DOUBLE, base: int = 0) -> np.ndarray:
    """Unit-stride sweeps over a working set, repeated ``n_sweeps`` times.

    The classic streaming-kernel pattern: every line is reused once per
    sweep at a stack distance equal to the working-set size in lines.
    """
    _check_positive(ws_bytes=ws_bytes, n_sweeps=n_sweeps, elem_bytes=elem_bytes)
    n_elems = max(1, ws_bytes // elem_bytes)
    one = base + np.arange(n_elems, dtype=np.int64) * elem_bytes
    return np.tile(one, n_sweeps)


def random_uniform(ws_bytes: int, n_accesses: int, seed: int = 0,
                   elem_bytes: int = _DOUBLE, base: int = 0) -> np.ndarray:
    """Uniformly random element accesses within a working set.

    Models pointer-chasing / indirect (gather) access with no temporal
    structure beyond the working-set size.
    """
    _check_positive(ws_bytes=ws_bytes, n_accesses=n_accesses,
                    elem_bytes=elem_bytes)
    rng = np.random.default_rng(seed)
    n_elems = max(1, ws_bytes // elem_bytes)
    idx = rng.integers(0, n_elems, size=n_accesses, dtype=np.int64)
    return base + idx * elem_bytes


def stencil1d(n_points: int, radius: int = 1, n_arrays: int = 2,
              n_iters: int = 2, elem_bytes: int = _DOUBLE) -> np.ndarray:
    """1-D stencil: read ``2*radius+1`` neighbours of array 0, write array 1.

    The dominant pattern of structured-grid hydrodynamics kernels:
    strong spatial locality plus whole-array reuse across iterations.
    """
    _check_positive(n_points=n_points, n_iters=n_iters, elem_bytes=elem_bytes)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if n_arrays < 2:
        raise ValueError("need at least read + write arrays")
    array_stride = (n_points + 2 * radius) * elem_bytes
    i = np.arange(radius, n_points + radius, dtype=np.int64)
    reads = [(i + off) * elem_bytes for off in range(-radius, radius + 1)]
    write = array_stride + i * elem_bytes
    per_point = np.stack(reads + [write], axis=1).reshape(-1)
    return np.tile(per_point, n_iters)


def interleave(streams: Sequence[np.ndarray], seed: Optional[int] = 0,
               address_disjoint: bool = True) -> np.ndarray:
    """Randomly interleave several streams into one, preserving each
    stream's internal order (models concurrent access phases).

    With ``address_disjoint`` each stream is relocated to a private
    address region so streams do not alias.
    """
    if not streams:
        raise ValueError("need at least one stream")
    streams = [np.asarray(s, dtype=np.int64) for s in streams]
    if address_disjoint:
        offset = 0
        shifted = []
        for s in streams:
            span = int(s.max()) + 64 if len(s) else 64
            shifted.append(s + offset)
            offset += span
        streams = shifted
    total = sum(len(s) for s in streams)
    owner = np.repeat(np.arange(len(streams)), [len(s) for s in streams])
    rng = np.random.default_rng(seed)
    rng.shuffle(owner)
    out = np.empty(total, dtype=np.int64)
    for k, s in enumerate(streams):
        out[owner == k] = s
    return out
