"""Analytic cache-hierarchy model from reuse-distance profiles.

The fast path of the sweep: per-level global miss ratios are computed
directly from a kernel's :class:`~repro.trace.kernel.ReuseProfile`
(Mattson stack distances + Hill/Smith set-associative correction)
instead of replaying addresses.  The shared L3 is fair-shared among the
cores concurrently running tasks, which is how the paper's per-core L3
capacity argument ("1MB of LLC per core", Sec. V-B2) enters the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config.cache import CacheHierarchy
from ..obs import get_metrics
from ..trace.kernel import KernelSignature

__all__ = ["MissProfile", "hierarchy_miss_profile",
           "hierarchy_miss_profile_batch"]


@dataclass(frozen=True)
class MissProfile:
    """Global (per memory access) miss ratios of the three levels.

    ``miss_lX`` is the probability that an access misses level X (and
    therefore accesses level X+1); the hierarchy is inclusive so the
    ratios are monotonically non-increasing.
    """

    miss_l1: float
    miss_l2: float
    miss_l3: float

    def __post_init__(self) -> None:
        for name, v in (("miss_l1", self.miss_l1), ("miss_l2", self.miss_l2),
                        ("miss_l3", self.miss_l3)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        if not self.miss_l1 >= self.miss_l2 >= self.miss_l3:
            raise ValueError("miss ratios must be non-increasing across levels")


def hierarchy_miss_profile(
    sig: KernelSignature,
    hierarchy: CacheHierarchy,
    l3_share_cores: int = 1,
) -> MissProfile:
    """Per-level miss ratios of ``sig``'s access stream on ``hierarchy``.

    SIMD fusion widens each access, but a fused access touches adjacent
    lines the scalar stream touched anyway, so the line-level reuse
    distances apply unchanged at every vector width.

    Parameters
    ----------
    l3_share_cores:
        Number of cores concurrently competing for the shared L3; the
        profile sees ``L3 / l3_share_cores`` of the capacity.  Use the
        *occupied* core count — idle cores don't pollute the LLC
        (Sec. V-A's underused-shared-resources observation).
    """
    if l3_share_cores <= 0:
        raise ValueError("l3_share_cores must be positive")

    reuse = sig.reuse

    l1, l2, l3 = hierarchy.l1, hierarchy.l2, hierarchy.l3
    m1 = reuse.miss_ratio(l1.n_lines, associativity=l1.associativity,
                          n_sets=l1.n_sets)
    m2 = reuse.miss_ratio(l2.n_lines, associativity=l2.associativity,
                          n_sets=l2.n_sets)
    l3_lines = max(1.0, l3.n_lines / l3_share_cores)
    l3_sets = max(1, int(l3.n_sets // l3_share_cores))
    m3 = reuse.miss_ratio(l3_lines, associativity=l3.associativity,
                          n_sets=l3_sets)

    # Enforce inclusion monotonicity (the binomial approximation can
    # produce tiny inversions when a lower level is smaller per-set).
    m2 = min(m2, m1)
    m3 = min(m3, m2)
    return MissProfile(miss_l1=m1, miss_l2=m2, miss_l3=m3)


def hierarchy_miss_profile_batch(
    sig: KernelSignature,
    hierarchies: Sequence[CacheHierarchy],
    index: Sequence[int],
    shares: Sequence[int],
    memo: Optional[Dict[Tuple, Tuple[float, float, float]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`hierarchy_miss_profile` over a configuration axis.

    Config ``i`` runs on ``hierarchies[index[i]]`` with
    ``l3_share_cores = shares[i]``; the result is the ``(miss_l1,
    miss_l2, miss_l3)`` columns.  Miss ratios depend only on
    ``(hierarchy, share)``, and a sweep batch contains few distinct
    pairs (3 cache presets x a handful of occupancy values), so the
    pairs are deduplicated as integers (``np.unique`` of
    ``index * stride + share``).  The distinct pairs' per-level cache
    geometries are deduplicated again (the fixed L1 is shared by every
    preset) and evaluated in **one** :meth:`~repro.trace.kernel.\
ReuseProfile.miss_ratio_batch` pass — bitwise-identical to per-config
    scalar :func:`hierarchy_miss_profile` calls, since the batched miss
    model is bitwise-identical per geometry and the monotonicity clamp
    is applied the same way per pair.  The number of geometry rows
    actually evaluated is counted under ``miss.batch.geometries``.
    ``memo`` — keyed ``(kernel, hierarchy, share)`` on the full hashable
    hierarchy, never a display label — lets a caller share distinct-pair
    evaluations across batches.
    """
    index = np.asarray(index, dtype=np.int64)
    shares = np.asarray(shares, dtype=np.int64)
    if index.shape != shares.shape or index.ndim != 1:
        raise ValueError("index and shares must be aligned 1-D sequences")
    if np.any(shares <= 0):
        raise ValueError("shares must be positive")
    stride = int(shares.max(initial=0)) + 1
    pairs, inverse = np.unique(index * stride + shares, return_inverse=True)
    keys = [(sig.name, hierarchies[h], s)
            for h, s in zip(*(a.tolist() for a in np.divmod(pairs, stride)))]
    ratios = np.empty((len(pairs), 3))
    pending: List[int] = []
    for p, key in enumerate(keys):
        hit = memo.get(key) if memo is not None else None
        if hit is None:
            pending.append(p)
        else:
            ratios[p] = hit

    if pending:
        # Dedup the (capacity, assoc, n_sets) rows across pairs and levels,
        # evaluate them in a single 2-D pass, then gather per pair.
        geom_index: Dict[Tuple[float, int, int], int] = {}

        def _row(cap: float, assoc: int, n_sets: int) -> int:
            return geom_index.setdefault((cap, assoc, n_sets),
                                         len(geom_index))

        level_idx = []
        for p in pending:
            _, h, s = keys[p]
            l1, l2, l3 = h.l1, h.l2, h.l3
            l3_lines = max(1.0, l3.n_lines / s)
            l3_sets = max(1, int(l3.n_sets // s))
            level_idx.append((
                _row(float(l1.n_lines), l1.associativity, l1.n_sets),
                _row(float(l2.n_lines), l2.associativity, l2.n_sets),
                _row(l3_lines, l3.associativity, l3_sets),
            ))
        geom = np.asarray(list(geom_index), dtype=np.float64)
        miss = sig.reuse.miss_ratio_batch(
            geom[:, 0], geom[:, 1].astype(np.int64),
            geom[:, 2].astype(np.int64))
        get_metrics().inc("miss.batch.geometries", len(geom_index))

        fresh = miss[np.asarray(level_idx)]
        # The scalar clamp: m2 = min(m2, m1); m3 = min(m3, m2).
        fresh[:, 1] = np.minimum(fresh[:, 1], fresh[:, 0])
        fresh[:, 2] = np.minimum(fresh[:, 2], fresh[:, 1])
        ratios[pending] = fresh
        if memo is not None:
            for p, row in zip(pending, fresh.tolist()):
                memo[keys[p]] = tuple(row)

    cols = ratios.T[:, inverse]
    return cols[0], cols[1], cols[2]
