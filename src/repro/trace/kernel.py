"""Detailed-trace kernel signatures.

MUSA's detailed traces record instruction-level information for each
compute kernel (opcode, PC, registers, memory addresses).  Replaying
hundreds of millions of instructions per design point is what makes the
native toolchain expensive; our substitute condenses a kernel's detailed
trace into a :class:`KernelSignature`:

* a dynamic **instruction mix** (fp / int / load / store / branch),
* an intrinsic **ILP** bound (dependency-limited IPC),
* **vectorization structure** (fusable fraction and loop trip counts),
* a **reuse-distance profile** of its memory accesses, and
* an inherent **memory-level parallelism** bound.

These are exactly the statistics the interval-analysis timing model and
the stack-distance cache model consume, so nothing is lost for the
sweep; the raw-stream path (:mod:`repro.trace.streams` +
:mod:`repro.trace.reuse`) can regenerate a profile from synthetic
address streams for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..obs import get_metrics
from ..util import LruDict

__all__ = ["InstructionMix", "ReuseProfile", "KernelSignature",
           "prime_survival_tables"]


@dataclass(frozen=True)
class InstructionMix:
    """Fractions of dynamic instructions per class; must sum to 1."""

    fp: float
    int_alu: float
    load: float
    store: float
    branch: float
    other: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.fp, self.int_alu, self.load, self.store, self.branch,
                self.other)
        if any(v < 0 for v in vals):
            raise ValueError("mix fractions must be non-negative")
        total = sum(vals)
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(f"mix fractions must sum to 1, got {total}")

    @property
    def mem(self) -> float:
        """Fraction of instructions that access memory."""
        return self.load + self.store


class ReuseProfile:
    """LRU stack-distance histogram of a kernel's memory accesses.

    Distances are measured in *distinct cache lines* touched between two
    accesses to the same line (Mattson stack distance).  The profile is
    stored as logarithmic buckets plus a ``cold_fraction`` of compulsory
    (first-touch) accesses with infinite distance.

    Miss ratios follow from the profile: a fully-associative LRU cache of
    ``C`` lines misses exactly the accesses with distance >= C; for a
    set-associative cache the Hill/Smith binomial approximation is used
    (an access at distance ``d`` hits iff fewer than ``assoc`` of the
    ``d`` intervening lines fall in its set).
    """

    __slots__ = ("_edges", "_weights", "cold_fraction", "_mids",
                 "_small_distances")

    def __init__(self, edges: Sequence[float], weights: Sequence[float],
                 cold_fraction: float = 0.0) -> None:
        edges_arr = np.asarray(edges, dtype=np.float64)
        weights_arr = np.asarray(weights, dtype=np.float64)
        if edges_arr.ndim != 1 or weights_arr.ndim != 1:
            raise ValueError("edges and weights must be 1-D")
        if len(edges_arr) != len(weights_arr) + 1:
            raise ValueError("need len(edges) == len(weights) + 1")
        if np.any(np.diff(edges_arr) <= 0):
            raise ValueError("edges must be strictly increasing")
        if edges_arr[0] < 0:
            raise ValueError("distances are non-negative")
        if np.any(weights_arr < 0):
            raise ValueError("weights must be non-negative")
        if not 0.0 <= cold_fraction <= 1.0:
            raise ValueError("cold_fraction must be in [0, 1]")
        total = weights_arr.sum() + cold_fraction
        if total <= 0:
            raise ValueError("profile is empty")
        # Normalize so that bucket weights + cold_fraction == 1.
        scale = (1.0 - cold_fraction) / weights_arr.sum() if weights_arr.sum() else 0.0
        self._edges = edges_arr
        self._weights = weights_arr * scale
        self.cold_fraction = float(cold_fraction)
        # Each bucket is priced at its geometric mid; the mids at most
        # _SMALL_D_MAX read the exact survival tables at these ints.
        self._mids = np.sqrt(np.maximum(edges_arr[:-1], 0.25) * edges_arr[1:])
        self._small_distances = np.maximum(
            self._mids[self._mids <= _SMALL_D_MAX], 0).astype(int)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_distances(cls, distances: np.ndarray, n_cold: int = 0,
                       n_buckets: int = 48) -> "ReuseProfile":
        """Build a profile from raw stack distances (see trace.reuse)."""
        distances = np.asarray(distances, dtype=np.float64)
        n_total = len(distances) + n_cold
        if n_total == 0:
            raise ValueError("no accesses")
        if len(distances) == 0:
            return cls([0.0, 1.0], [0.0], cold_fraction=1.0)
        dmax = max(distances.max(), 1.0)
        edges = np.concatenate(
            [[0.0], np.logspace(0, np.log2(dmax) + 1e-9, n_buckets, base=2.0)]
        )
        hist, _ = np.histogram(distances, bins=edges)
        return cls(edges, hist / n_total, cold_fraction=n_cold / n_total)

    @classmethod
    def from_components(cls, components: Sequence[Tuple[float, float]],
                        cold_fraction: float = 0.0) -> "ReuseProfile":
        """Build from ``(distance, weight)`` pairs.

        This is the analytic constructor the application models use: each
        component states "``weight`` of accesses reuse a line last touched
        ``distance`` distinct lines ago".  Weights need not be normalized.
        """
        if not components:
            raise ValueError("need at least one component")
        dists = np.array([max(0.0, d) for d, _ in components])
        ws = np.array([w for _, w in components], dtype=np.float64)
        if np.any(ws < 0):
            raise ValueError("weights must be non-negative")
        if ws.sum() <= 0 and cold_fraction <= 0:
            raise ValueError("profile is empty")
        order = np.argsort(dists)
        dists, ws = dists[order], ws[order]
        # Spread each point over a narrow log bucket so miss curves are
        # smooth rather than step functions across the design space.
        edges_list = [0.0]
        weights_list = []
        for d, w in zip(dists, ws):
            lo = max(edges_list[-1], d * 0.75)
            hi = max(lo * 1.5, lo + 1.0)
            if lo > edges_list[-1]:
                edges_list.append(lo)
                weights_list.append(0.0)
            edges_list.append(hi)
            weights_list.append(w)
        total = ws.sum()
        weights_arr = np.array(weights_list) / total * (1.0 - cold_fraction) \
            if total else np.array(weights_list)
        return cls(np.array(edges_list), weights_arr, cold_fraction)

    # -- queries ------------------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        return self._edges.copy()

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    def mean_distance(self) -> float:
        """Weighted mean stack distance of the finite-distance accesses."""
        mids = np.sqrt(np.maximum(self._edges[:-1], 0.5) * self._edges[1:])
        w = self._weights.sum()
        if w == 0:
            return math.inf
        return float((mids * self._weights).sum() / w)

    def miss_ratio(self, capacity_lines: float, associativity: int = 0,
                   n_sets: int = 0) -> float:
        """Miss ratio of an LRU cache with the given geometry.

        With ``associativity == 0`` the cache is treated as fully
        associative (miss iff distance >= capacity).  Otherwise the
        Hill/Smith set-associative correction is applied using
        ``n_sets`` (defaults to capacity/assoc).
        """
        if capacity_lines <= 0:
            return 1.0
        mids = self._mids
        if associativity <= 0:
            p_miss = (mids >= capacity_lines).astype(np.float64)
            # log-linear interpolation inside the straddling bucket
            lo, hi = self._edges[:-1], self._edges[1:]
            straddle = (lo < capacity_lines) & (hi >= capacity_lines)
            if straddle.any():
                lo_s = np.maximum(lo[straddle], 0.5)
                frac = (np.log(capacity_lines) - np.log(lo_s)) / (
                    np.log(hi[straddle]) - np.log(lo_s)
                )
                p_miss[straddle] = 1.0 - np.clip(frac, 0.0, 1.0)
        else:
            sets = n_sets if n_sets > 0 else max(1, int(capacity_lines) // associativity)
            p_miss = _setassoc_miss_prob(mids, associativity, sets)
        return float(np.clip((p_miss * self._weights).sum() + self.cold_fraction,
                             0.0, 1.0))

    def miss_ratio_batch(self, capacities: Sequence[float],
                         associativities: Sequence[int],
                         n_sets: Sequence[int]) -> np.ndarray:
        """:meth:`miss_ratio` over a batch of cache geometries.

        All ``G`` geometries are evaluated against the ``B`` reuse
        buckets in one ``(G, B)`` NumPy pass and reduced row-wise.
        Bitwise-identical to ``G`` scalar :meth:`miss_ratio` calls: each
        element sees the same float64 operation sequence on the same
        operands (ufuncs are shape-invariant), and the row reduction is
        a 1-D-length pairwise sum over a C-contiguous row, exactly the
        reduction order of the scalar ``(p_miss * weights).sum()``.
        """
        caps = np.asarray(capacities, dtype=np.float64)
        assocs = np.asarray(associativities, dtype=np.int64)
        sets = np.asarray(n_sets, dtype=np.int64)
        if not (caps.shape == assocs.shape == sets.shape) or caps.ndim != 1:
            raise ValueError("geometry arrays must be 1-D and aligned")
        n_geom = len(caps)
        n_buckets = len(self._weights)
        out = np.empty(n_geom, dtype=np.float64)
        empty = caps <= 0
        out[empty] = 1.0
        live = ~empty
        if not live.any():
            return out
        mids = self._mids
        p_miss = np.empty((int(live.sum()), n_buckets), dtype=np.float64)
        caps_l, assocs_l, sets_l = caps[live], assocs[live], sets[live]

        fa = assocs_l <= 0
        if fa.any():
            caps_fa = caps_l[fa]
            pm = (mids[None, :] >= caps_fa[:, None]).astype(np.float64)
            lo, hi = self._edges[:-1], self._edges[1:]
            straddle = ((lo[None, :] < caps_fa[:, None])
                        & (hi[None, :] >= caps_fa[:, None]))
            if straddle.any():
                lo_s = np.maximum(lo, 0.5)
                with np.errstate(divide="ignore", invalid="ignore"):
                    frac = (np.log(caps_fa)[:, None] - np.log(lo_s)[None, :]) / (
                        np.log(hi)[None, :] - np.log(lo_s)[None, :]
                    )
                    pm[straddle] = (1.0 - np.clip(frac, 0.0, 1.0))[straddle]
            p_miss[fa] = pm

        sa = ~fa
        if sa.any():
            # sets <= 0 defaults to capacity/assoc, as in the scalar path
            sets_eff = np.where(
                sets_l[sa] > 0, sets_l[sa],
                np.maximum(1, caps_l[sa].astype(np.int64) // assocs_l[sa]))
            p_miss[sa] = _setassoc_miss_prob_batch(mids, assocs_l[sa], sets_eff)

        out[live] = np.clip(
            np.sum(p_miss * self._weights, axis=1) + self.cold_fraction,
            0.0, 1.0)
        return out


#: Largest stack distance priced with the exact binomial tail; beyond it
#: the normal approximation takes over (same threshold scipy-era code used).
_SMALL_D_MAX = 256

#: Survival tables keyed ``(assoc, n_sets)``, one owned row each.  The
#: L3 set count divided by each occupancy gives many keys: a cold
#: ``sweep_fast`` round needs 166, over only two associativities.  A
#: table holds NaN at each distance not built yet: reuse profiles read
#: a few distances, and the recurrence runs only as deep as the largest.
_SURVIVAL_TABLES: LruDict = LruDict(512, eviction_counter="miss.table.evictions")

_SQRT1_2 = 1.0 / math.sqrt(2.0)


def _survival_rows(assoc: int, p: np.ndarray,
                   distances: Sequence[int]) -> np.ndarray:
    """``tab[j, i] = P(Binom(distances[j], p[i]) >= assoc)``.

    ``distances`` ascend, at most ``_SMALL_D_MAX``.  Built from the
    exact one-more-trial pmf recurrence
    ``pmf_{d+1}[k] = pmf_d[k]*q + pmf_d[k-1]*p``, run d-major (each
    step updates contiguous rows of all keys) up to the largest
    distance, and summed over the upper tail directly, so no scipy is
    needed and small tail values are not lost to a ``1 - cdf``
    cancellation.  Every element sees the float64 operations of a
    one-key loop and each tail is the sum of a C-contiguous copy of
    one key's pmf, so a table's bits do not depend on the other keys
    or distances of its call.
    """
    n, q = distances[-1] + 1, 1.0 - p
    pmf = np.zeros((n, len(p)), dtype=np.float64)
    pmf[0] = 1.0
    moved = np.empty_like(pmf)
    tab = np.zeros((len(distances), len(p)), dtype=np.float64)
    row_of = {d: j for j, d in enumerate(distances)}
    for d in range(n):
        if d:
            np.multiply(pmf[:d], p, out=moved[:d])
            kept = pmf[:d + 1]
            np.multiply(kept, q, out=kept)
            grown = kept[1:]
            np.add(grown, moved[:d], out=grown)
        j = row_of.get(d)
        if j is not None and d >= assoc:
            tails = np.ascontiguousarray(pmf[assoc:d + 1].T)
            np.add.reduce(tails, axis=1, out=tab[j])
    return tab


def _survival_tables(assocs, n_sets, distances) -> np.ndarray:
    """``tab[g, j] = P(Binom(distances[j], 1 / n_sets[g]) >= assocs[g])``.

    ``distances`` are ints in ``0.._SMALL_D_MAX``; the keys' tables come
    from :func:`_tables_for`.
    """
    distances = np.asarray(distances, dtype=np.intp)
    keys = [(int(a), int(s)) for a, s in zip(assocs, n_sets)]
    tables = _tables_for(keys, np.flatnonzero(np.bincount(distances)))
    return np.stack([tables[key][distances] for key in keys])


def _tables_for(keys, need: np.ndarray) -> dict:
    """The survival table of every ``(assoc, n_sets)`` key, holding at
    least the distances ``need`` (ascending ints).

    Keys missing from ``_SURVIVAL_TABLES``, or missing one of ``need``
    there, are built together: one :func:`_survival_rows` recurrence
    per distinct ``max(0, assoc)``, over ``need``.  Each key built is
    counted under ``miss.table.builds``.
    """
    tables, missing = {}, {}
    for key in dict.fromkeys(keys):
        tab = _SURVIVAL_TABLES.get(key)
        if tab is None or np.isnan(tab[need]).any():
            missing.setdefault(max(0, key[0]), []).append(key)
        tables[key] = tab
    for assoc, group in missing.items():
        p = 1.0 / np.array([s for _, s in group], dtype=np.float64)
        built = _survival_rows(assoc, p, need.tolist())
        for i, key in enumerate(group):
            tab = tables[key]
            if tab is None:
                tab = tables[key] = np.full(_SMALL_D_MAX + 1, np.nan)
            tab[need] = built[:, i]
            _SURVIVAL_TABLES[key] = tab
        get_metrics().inc("miss.table.builds", len(group))
    return tables


def prime_survival_tables(profiles: Sequence[ReuseProfile],
                          assocs: Sequence[int],
                          n_sets: Sequence[int]) -> None:
    """Build every set-associative ``(assoc, n_sets)`` survival table
    that ``profiles`` will read, once, over the union of their small
    distances.

    :meth:`ReuseProfile.miss_ratio_batch` builds the keys it lacks over
    its own profile's distances only, so profiles priced one after
    another rebuild a shared key for each new distance; priming first
    turns those builds into gathers.  A table's bits do not depend on
    the keys or distances it is built with, so priming changes no
    miss ratio.
    """
    need = np.flatnonzero(np.bincount(
        np.concatenate([p._small_distances for p in profiles])))
    keys = [(int(a), int(s)) for a, s in zip(assocs, n_sets) if a > 0]
    if len(need) and keys:
        _tables_for(keys, need)


def _norm_sf(x: np.ndarray) -> np.ndarray:
    """Standard normal survival function, ``0.5 * erfc(x / sqrt(2))``.

    NumPy has no ``erfc`` ufunc and scipy is banned from the hot path;
    ``math.erfc`` per element is fine because the large-d branch only
    runs on the handful of reuse buckets past ``_SMALL_D_MAX``.
    """
    flat = np.asarray(x, dtype=np.float64).ravel()
    out = np.fromiter((math.erfc(v * _SQRT1_2) for v in flat),
                      dtype=np.float64, count=flat.size)
    return 0.5 * out.reshape(np.shape(x))


def _setassoc_miss_prob(distances: np.ndarray, assoc: int,
                        n_sets: int) -> np.ndarray:
    """P(miss | stack distance d) for an A-way cache with S sets.

    An access hits iff fewer than A of the d distinct intervening lines
    map to its set; intervening lines are assumed uniformly spread
    (Hill & Smith, 1989).  A normal approximation is used for large d to
    keep the sweep fast; the exact binomial tail (precomputed survival
    table) is used when d is small.  scipy-free: the tests cross-check it
    against ``scipy.stats``.
    """
    d = np.asarray(distances, dtype=np.float64)
    p = 1.0 / n_sets
    mean = d * p
    out = np.empty_like(d)
    small = d <= _SMALL_D_MAX
    if small.any():
        out[small] = _survival_tables(
            [assoc], [n_sets], np.maximum(d[small], 0).astype(int))[0]
    big = ~small
    if big.any():
        sd = np.sqrt(np.maximum(d[big] * p * (1 - p), 1e-12))
        # continuity-corrected P(X >= assoc)
        out[big] = _norm_sf((assoc - 0.5 - mean[big]) / sd)
    return np.clip(out, 0.0, 1.0)


def _setassoc_miss_prob_batch(distances: np.ndarray, assocs: np.ndarray,
                              n_sets: np.ndarray) -> np.ndarray:
    """:func:`_setassoc_miss_prob` for G geometries at once -> ``(G, B)``.

    Bitwise-identical to stacking G scalar calls: the small-d branch
    gathers from the same survival tables, and the large-d branch runs
    the same elementwise float64 sequence with the per-geometry scalars
    broadcast along the rows.
    """
    d = np.asarray(distances, dtype=np.float64)
    assocs = np.asarray(assocs, dtype=np.int64)
    sets = np.asarray(n_sets, dtype=np.int64)
    p = 1.0 / sets.astype(np.float64)
    mean = d[None, :] * p[:, None]
    out = np.empty((len(assocs), len(d)), dtype=np.float64)
    small = d <= _SMALL_D_MAX
    if small.any():
        out[:, small] = _survival_tables(
            assocs, sets, np.maximum(d[small], 0).astype(int))
    big = ~small
    if big.any():
        sd = np.sqrt(np.maximum((d[None, big] * p[:, None]) * (1 - p)[:, None],
                                1e-12))
        out[:, big] = _norm_sf(
            ((assocs.astype(np.float64) - 0.5)[:, None] - mean[:, big]) / sd)
    return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class KernelSignature:
    """Condensed detailed trace of one compute kernel (task type).

    Attributes
    ----------
    name:
        Kernel identifier, matching :class:`~repro.trace.events.TaskRecord`
        ``kernel`` fields.
    instr_per_unit:
        Dynamic *scalar-equivalent* instructions per work unit (the trace
        is scalarized exactly as MUSA's decoder does, so SIMD fusion can
        re-vectorize it at any width).
    mix:
        Dynamic instruction mix.
    ilp:
        Dependency-limited IPC ceiling of the kernel's dataflow (what an
        infinitely wide machine with perfect caches would sustain).
    vec_fraction:
        Fraction of instructions inside vectorizable innermost loops
        (candidates for SIMD fusion).
    trip_count:
        Typical innermost-loop trip count; fusion to ``L`` lanes requires
        the same static instruction to repeat ``L`` times consecutively,
        so the trip count caps the effective width (Sec. III).
    mlp:
        Inherent memory-level parallelism: independent in-flight misses
        the dataflow allows (ROB size may further limit it).
    reuse:
        Stack-distance profile of memory accesses.
    row_hit_rate:
        DRAM row-buffer hit probability of the kernel's miss stream
        (high for streaming kernels, low for irregular/gather access);
        consumed by the DRAM power model to estimate ACT/PRE counts.
    """

    name: str
    instr_per_unit: float
    mix: InstructionMix
    ilp: float
    vec_fraction: float
    trip_count: float
    mlp: float
    reuse: ReuseProfile
    row_hit_rate: float = 0.6

    def __post_init__(self) -> None:
        if self.instr_per_unit <= 0:
            raise ValueError("instr_per_unit must be positive")
        if self.ilp <= 0:
            raise ValueError("ilp must be positive")
        if not 0.0 <= self.vec_fraction <= 1.0:
            raise ValueError("vec_fraction must be in [0, 1]")
        if self.trip_count < 1:
            raise ValueError("trip_count must be >= 1")
        if self.mlp < 1:
            raise ValueError("mlp must be >= 1")
        if not 0.0 <= self.row_hit_rate <= 1.0:
            raise ValueError("row_hit_rate must be in [0, 1]")

    def instructions(self, work_units: float) -> float:
        """Dynamic scalar instruction count for ``work_units`` of work."""
        if work_units <= 0:
            raise ValueError("work_units must be positive")
        return self.instr_per_unit * work_units
