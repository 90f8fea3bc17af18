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
from ..trace.kernel import KernelSignature, prime_survival_tables

__all__ = ["MissProfile", "MissTable", "hierarchy_miss_profile",
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


class MissTable:
    """Dense miss ratios of a set of kernels, one table per (kernel,
    hierarchy), indexed by L3 share.

    The share reaches only the shared L3, so the clamped L1 and L2
    ratios are stored once per (kernel, hierarchy) and the clamped L3
    ratio once per share.  Kernels are keyed by name (one table serves
    one app's kernels) and hierarchies by value; both axes and the
    share axis grow on demand, and a cell not priced yet holds NaN.
    Each cell holds the floats scalar :func:`hierarchy_miss_profile`
    returns.  Not thread-safe: callers serialize evaluations.
    """

    def __init__(self) -> None:
        self._kernels: Dict[str, int] = {}
        self._hierarchies: Dict[CacheHierarchy, int] = {}
        self._l12 = np.full((0, 0, 2), np.nan)
        self._l3 = np.full((0, 0, 0), np.nan)

    def _ids(self, sigs: Sequence[KernelSignature],
             hierarchies: Sequence[CacheHierarchy],
             max_share: int) -> Tuple[np.ndarray, np.ndarray]:
        """Table rows of ``sigs`` and ``hierarchies``, growing every
        axis to hold them and shares up to ``max_share``."""
        kid = np.array([self._kernels.setdefault(s.name, len(self._kernels))
                        for s in sigs], np.int64)
        hid = np.array([self._hierarchies.setdefault(h, len(self._hierarchies))
                        for h in hierarchies], np.int64)
        n_k, n_h, n_s = self._l3.shape
        want = (max(n_k, len(self._kernels)), max(n_h, len(self._hierarchies)),
                max(n_s, max_share + 1))
        if want != (n_k, n_h, n_s):
            # Shares grow in blocks of 64 (a sweep's core counts), the
            # kernel and hierarchy axes one entry at a time.
            want = want[:2] + (-(-want[2] // 64) * 64,)
            l3 = np.full(want, np.nan)
            l3[:n_k, :n_h, :n_s] = self._l3
            l12 = np.full(want[:2] + (2,), np.nan)
            l12[:n_k, :n_h] = self._l12
            self._l3, self._l12 = l3, l12
        return kid, hid

    def _fill(self, sigs: Sequence[KernelSignature], kid: np.ndarray,
              hierarchies: Sequence[CacheHierarchy], hid: np.ndarray,
              cells: np.ndarray) -> None:
        """Price the ``(kernel row, hierarchy row, share)`` ``cells``.

        The cells' per-level geometries (and the L1 and L2 of each
        (kernel, hierarchy) not priced yet) are deduplicated across
        kernels, their survival tables are built once over the union of
        the kernels' distances, and each kernel then prices its own
        geometries in one ``miss_ratio_batch`` pass.
        """
        sig_of = dict(zip(kid.tolist(), sigs))
        h_of = dict(zip(hid.tolist(), hierarchies))
        geom_index: Dict[Tuple[float, int, int], int] = {}

        def _row(cap: float, assoc: int, n_sets: int) -> int:
            return geom_index.setdefault((cap, assoc, n_sets),
                                         len(geom_index))

        # kernel row -> {hierarchy row: (L1, L2) geometry rows} for the
        # pairs not priced yet, and -> [((hierarchy row, share), L3
        # geometry row)] for the cells.
        l12_rows: Dict[int, Dict[int, Tuple[int, int]]] = {}
        l3_rows: Dict[int, List] = {}
        for k, h, s in cells.tolist():
            hier = h_of[h]
            l12 = l12_rows.setdefault(k, {})
            if h not in l12 and np.isnan(self._l12[k, h, 0]):
                l1, l2 = hier.l1, hier.l2
                l12[h] = (
                    _row(float(l1.n_lines), l1.associativity, l1.n_sets),
                    _row(float(l2.n_lines), l2.associativity, l2.n_sets))
            l3 = hier.l3
            l3_rows.setdefault(k, []).append(((h, s), _row(
                max(1.0, l3.n_lines / s), l3.associativity,
                max(1, int(l3.n_sets // s)))))

        geom = np.asarray(list(geom_index), dtype=np.float64)
        caps, assocs = geom[:, 0], geom[:, 1].astype(np.int64)
        n_sets = geom[:, 2].astype(np.int64)
        prime_survival_tables([sig_of[k].reuse for k in l3_rows],
                              assocs, n_sets)
        obs = get_metrics()
        for k, l3_cells in l3_rows.items():
            l12 = l12_rows[k]
            rows = sorted({r for pair in l12.values() for r in pair}
                          | {r for _, r in l3_cells})
            obs.inc("miss.batch.geometries", len(rows))
            miss = np.empty(len(geom_index))
            miss[rows] = sig_of[k].reuse.miss_ratio_batch(
                caps[rows], assocs[rows], n_sets[rows])
            # The scalar clamp: m2 = min(m2, m1); m3 = min(m3, m2).
            for h, (r1, r2) in l12.items():
                m1 = miss[r1]
                self._l12[k, h] = (m1, min(miss[r2], m1))
            for (h, s), r in l3_cells:
                self._l3[k, h, s] = min(miss[r], self._l12[k, h, 1])


def hierarchy_miss_profile_batch(
    sigs: Sequence[KernelSignature],
    hierarchies: Sequence[CacheHierarchy],
    index: Sequence[int],
    shares: np.ndarray,
    table: Optional[MissTable] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`hierarchy_miss_profile` over (kernel, configuration) lanes.

    Config ``i`` runs on ``hierarchies[index[i]]``, and kernel ``j``
    sees ``l3_share_cores = shares[j, i]``; the result is the
    ``(miss_l1, miss_l2, miss_l3)`` columns, each ``(kernels,
    configs)``.  The ratios are read from ``table`` (a fresh
    :class:`MissTable` when ``None``) in one gather; only the call's
    distinct hierarchies are hashed, once each.  Cells not in the
    table are priced first in one fill: bitwise-identical to
    per-lane scalar :func:`hierarchy_miss_profile` calls, since the
    batched miss model is bitwise-identical per geometry and the
    monotonicity clamp is applied the same way per cell.  The number
    of (kernel, geometry) rows priced is counted under
    ``miss.batch.geometries``.
    """
    index = np.asarray(index, dtype=np.int64)
    shares = np.asarray(shares, dtype=np.int64)
    if index.ndim != 1 or shares.shape != (len(sigs), len(index)):
        raise ValueError("shares must be (kernels, configs), index 1-D")
    if np.any(shares <= 0):
        raise ValueError("shares must be positive")
    table = table if table is not None else MissTable()
    kid, hid = table._ids(sigs, hierarchies, int(shares.max(initial=0)))
    k_ix, h_ix = kid[:, None], hid[index][None, :]
    m3 = table._l3[k_ix, h_ix, shares]
    hole = np.isnan(m3)
    if hole.any():
        flat = np.ravel_multi_index(
            (np.broadcast_to(k_ix, shares.shape)[hole],
             np.broadcast_to(h_ix, shares.shape)[hole], shares[hole]),
            table._l3.shape)
        flat.sort()
        flat = flat[np.r_[True, flat[1:] != flat[:-1]]]
        cells = np.stack(np.unravel_index(flat, table._l3.shape), axis=1)
        table._fill(sigs, kid, hierarchies, hid, cells)
        m3 = table._l3[k_ix, h_ix, shares]
    l12 = table._l12[k_ix, h_ix]
    return l12[..., 0], l12[..., 1], m3
