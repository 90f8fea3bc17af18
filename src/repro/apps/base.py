"""Application-model base class.

The five paper applications (HYDRO, SP-MZ, BT-MZ, Specfem3D, LULESH)
are represented as *trace generators*: each model emits the same
two-level traces the MUSA toolchain records from the real codes —

* a **burst trace**: per-rank streams of compute phases (with runtime
  task events) and MPI calls (3-D halo exchanges + collectives);
* a **detailed trace**: per-kernel instruction-level signatures
  (mix, ILP, vectorization structure, reuse profile).

Model parameters are calibrated against the paper's published runtime
statistics (Fig. 1 MPKI/bandwidth, Fig. 2 scaling, Figs. 5-9 axis
sensitivities); the calibration tests in ``tests/apps`` pin them.

Each model builds ONE canonical iteration's phase list and reuses the
same (frozen) phase objects across ranks and iterations; rank-to-rank
load imbalance is expressed through :meth:`rank_scales`, exactly how
MUSA replays a single detailed sample per rank class.  Downstream
caches key on phase object identity, which this sharing makes effective.
"""

from __future__ import annotations

import math
import zlib
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..trace.burst import (IRECV, ISEND, KINDS, PHASE, WAIT, BurstTrace,
                           EventColumns)
from ..trace.detailed import DetailedTrace
from ..trace.events import ComputePhase
from ..trace.kernel import KernelSignature

__all__ = ["AppModel", "rank_grid_dims", "grid_neighbors"]

_ALLREDUCE = KINDS.index("allreduce")


def rank_grid_dims(n_ranks: int) -> Tuple[int, int, int]:
    """Factor ``n_ranks`` into a near-cubic 3-D process grid.

    256 -> (8, 8, 4), matching the paper's 256-rank decompositions.
    """
    if n_ranks <= 0:
        raise ValueError("n_ranks must be positive")
    best = (n_ranks, 1, 1)
    best_score = float("inf")
    for x in range(1, int(round(n_ranks ** (1 / 3))) + 2):
        if n_ranks % x:
            continue
        rem = n_ranks // x
        for y in range(x, int(math.isqrt(rem)) + 1):
            if rem % y:
                continue
            z = rem // y
            dims = tuple(sorted((x, y, z), reverse=True))
            score = max(dims) / min(dims)
            if score < best_score:
                best_score = score
                best = dims
    return best  # type: ignore[return-value]


def grid_neighbors(rank: int, dims: Tuple[int, int, int]) -> List[int]:
    """Periodic +/- neighbours of ``rank`` along each axis of the grid.

    Returns up to 6 distinct neighbour ranks (fewer when an axis has
    length 1 or 2 and both directions coincide).
    """
    nx, ny, nz = dims
    n = nx * ny * nz
    if not 0 <= rank < n:
        raise ValueError("rank out of range for grid")
    x = rank % nx
    y = (rank // nx) % ny
    z = rank // (nx * ny)
    out: List[int] = []
    for axis, (size, coord) in enumerate(((nx, x), (ny, y), (nz, z))):
        if size == 1:
            continue
        for step in (-1, +1):
            c = (coord + step) % size
            if axis == 0:
                nb = c + nx * (y + ny * z)
            elif axis == 1:
                nb = x + nx * (c + ny * z)
            else:
                nb = x + nx * (y + ny * c)
            if nb != rank and nb not in out:
                out.append(nb)
    return out


class AppModel(ABC):
    """One hybrid MPI+OpenMP application.

    Subclasses define the kernel signatures, the canonical iteration's
    compute phases, and a handful of application-level characteristics
    (halo message size, collectives per iteration, rank imbalance).
    """

    #: application name as used in the paper's figures
    name: str = ""
    #: halo message payload per neighbour (bytes)
    halo_bytes: int = 256 * 1024
    #: number of 8-byte allreduce operations per iteration
    allreduce_per_iter: int = 1
    #: rank-level load imbalance (max/mean - 1 across ranks)
    rank_imbalance: float = 0.1
    #: iterations in the traced region
    default_iterations: int = 4
    #: random seed namespace for deterministic trace generation
    seed: int = 0

    def __init__(self, **overrides) -> None:
        """Instantiate the model, optionally overriding class-level
        characteristics for what-if studies.

        Example: ``SpMz(n_zones=256)`` models the paper's Sec. V-B4
        hypothetical — an SP-MZ decomposed finely enough to occupy a
        64-core socket (and, consequently, to saturate its memory
        channels).
        """
        for key, value in overrides.items():
            if not hasattr(type(self), key):
                raise TypeError(
                    f"{type(self).__name__} has no characteristic {key!r}")
            if callable(getattr(type(self), key)):
                raise TypeError(f"{key!r} is a method, not a characteristic")
            setattr(self, key, value)

    # -- abstract interface ----------------------------------------------------

    @abstractmethod
    def kernels(self) -> Dict[str, KernelSignature]:
        """Detailed signatures of every kernel this app's tasks use."""

    @abstractmethod
    def iteration_phases(self) -> Tuple[ComputePhase, ...]:
        """Build the compute phases of one iteration (fresh objects)."""

    def canonical_phases(self) -> Tuple[ComputePhase, ...]:
        """The ONE phase tuple shared by every consumer of this model.

        Burst traces embed these exact objects in every rank and
        iteration, so downstream identity-keyed memoization (burst
        schedules, detailed phase results) is effective across the
        whole design-space sweep.
        """
        cached = getattr(self, "_canonical_phases", None)
        if cached is None:
            cached = self.iteration_phases()
            self._canonical_phases = cached
        return cached

    # -- derived trace products -------------------------------------------------

    def detailed_trace(self) -> DetailedTrace:
        """The per-kernel detailed trace (MUSA samples one iteration)."""
        return DetailedTrace(app=self.name, kernels=self.kernels())

    def representative_phase(self) -> ComputePhase:
        """The single compute region used for the Fig. 2a scaling study
        (the phase carrying the most work)."""
        return max(self.canonical_phases(), key=lambda p: p.total_task_ns)

    def rank_scales(self, n_ranks: int) -> np.ndarray:
        """Per-rank compute-time multipliers (load imbalance across ranks).

        Mean 1.0; max/mean - 1 equals :attr:`rank_imbalance`.  A fixed
        seed keeps traces deterministic.
        """
        if n_ranks <= 0:
            raise ValueError("n_ranks must be positive")
        if n_ranks == 1 or self.rank_imbalance == 0:
            return np.ones(n_ranks)
        rng = self._rng("ranks")
        raw = rng.lognormal(0.0, 0.25, size=n_ranks)
        raw /= raw.mean()
        mx = raw.max()
        if mx > 1.0:
            raw = 1.0 + (raw - 1.0) * (self.rank_imbalance / (mx - 1.0))
        raw = np.maximum(raw, 0.05)
        return raw / raw.mean()

    def resolve_iterations(self, n_iterations: Optional[int]) -> int:
        """Resolve an ``n_iterations`` argument: ``None`` means
        :attr:`default_iterations`; zero or a negative count raises."""
        if n_iterations is None:
            return self.default_iterations
        if n_iterations <= 0:
            raise ValueError("n_iterations must be positive")
        return n_iterations

    def burst_trace(self, n_ranks: int = 256,
                    n_iterations: Optional[int] = None) -> BurstTrace:
        """Whole-application burst trace for ``n_ranks`` ranks.

        Every iteration is: halo exchange (irecv/isend/waitall with the
        6 grid neighbours), the canonical compute phases, and the
        iteration-closing allreduce(s) — the dominant communication
        skeleton of all five applications (Sec. V-A).  Iterations are
        identical, so each rank stores one as its period, repeated
        ``n_iterations`` times.  The periods are built directly as the
        trace's integer columns; no event object is made.
        """
        n_iter = self.resolve_iterations(n_iterations)
        phases = self.canonical_phases()
        dims = rank_grid_dims(n_ranks)
        nbrs = np.array([grid_neighbors(r, dims) for r in range(n_ranks)],
                        dtype=np.int64).reshape(n_ranks, -1)
        k = nbrs.shape[1]   # the same for every rank of a periodic grid
        # Phase block p: k irecvs, then k isends, to the neighbours in
        # order; a wait on each of the 2k requests, numbered on from
        # block p - 1's; the phase.  After the blocks, the allreduces.
        blk = 4 * k + 1
        n_blk = len(phases) * blk
        pos = np.arange(n_blk) % blk
        block = np.arange(n_blk) // blk
        posting = pos < 2 * k
        kind = np.concatenate((
            np.where(posting, np.where(pos < k, IRECV, ISEND),
                     np.where(pos < 4 * k, WAIT, PHASE)),
            np.full(self.allreduce_per_iter, _ALLREDUCE)))
        tail = np.full(self.allreduce_per_iter, -1)
        within = np.where(posting, pos, pos - 2 * k)   # request in block
        request = np.concatenate((
            np.where(pos < 4 * k, 2 * k * block + within, -1), tail))
        size = np.concatenate((np.where(posting, self.halo_bytes, 0),
                               np.full(self.allreduce_per_iter, 8)))
        phase = np.concatenate((np.where(pos == 4 * k, block, -1), tail))
        peer = np.full((n_ranks, len(kind)), -1, dtype=np.int64)
        peer[:, np.flatnonzero(posting)] = np.tile(nbrs, 2 * len(phases))
        columns = EventColumns(
            kind=np.tile(kind, n_ranks), peer=peer.ravel(),
            tag=np.zeros(peer.size, dtype=np.int64),
            size=np.tile(size, n_ranks), request=np.tile(request, n_ranks),
            phase=np.tile(phase, n_ranks),
            offsets=np.arange(n_ranks + 1) * len(kind))
        return BurstTrace(self.name, columns, phases, repeats=n_iter,
                          n_iterations=n_iter)

    # -- bookkeeping -------------------------------------------------------------

    def _rng(self, stream: str) -> np.random.Generator:
        """Deterministic per-purpose RNG.

        Seeded with a *stable* hash (CRC32) — Python's built-in ``hash``
        is salted per process and would make traces differ across runs.
        """
        token = f"{self.name}/{stream}/{self.seed}".encode()
        return np.random.default_rng(zlib.crc32(token))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AppModel {self.name}>"
