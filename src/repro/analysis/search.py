"""Pareto-guided active design-space exploration.

Exhaustive sweeps stop scaling once range axes push the space past
10^5 points: even at ~10^4 configs/s, a million-point space per app is
minutes of compute spent mostly on dominated points.  This module
replaces exhaustion with an **active search loop** in the spirit of
gem5 Co-Pilot's guided DSE (see PAPERS.md), built from three parts the
engine already guarantees to be exact:

* the **batched evaluator** (:class:`repro.core.batch.BatchEvaluator`)
  as the inner loop — every evaluated point is bitwise-identical to
  what the exhaustive sweep would have produced, so a recovered front
  *is* the exhaustive front restricted to evaluated points;
* the **dominance kernel** (:func:`repro.analysis.pareto.front_indices`)
  shared with :func:`pareto_front`, so "front" means exactly the same
  thing here as in the exhaustive analysis;
* the **content-addressed store** (:class:`repro.core.store.ResultStore`)
  as the optional output sink — evaluated points stream into the same
  store the serve layer answers from, so a search warms the cache for
  later queries.

The loop itself is epsilon-greedy neighborhood descent over axis
coordinates:

1. **seed** with the space's corner points plus an axis cross through
   the center (every per-axis marginal through one interior point) —
   cheap, deterministic coverage of the monotone trade-off extremes
   where Pareto fronts live;
2. each round, propose the unevaluated **axis neighbors** (+-1 per
   axis) of the current front; with probability ``epsilon`` a batch
   slot takes a uniformly random unevaluated point instead
   (exploration, so a disconnected front component is still found);
3. optionally rank the neighbor pool with a **quadratic surrogate**
   (per-axis quadratic least squares on log metrics, NumPy ``lstsq``;
   ``search.surrogate_rank_calls`` counts fits) so likely-front
   candidates are evaluated first under a tight budget;
4. stop when the front has been stable for ``patience`` rounds *and*
   every neighbor of every front point has been evaluated (the
   neighborhood-closure certificate), or when the evaluation budget /
   the space is exhausted.

On spaces where the front's axis-coordinate graph is connected —
 which holds for the monotone performance/power trade-offs this model
produces — neighborhood closure recovers the exhaustive front exactly;
the property suite pins this on the full 864-point paper space and the
``macro.search_dse`` benchmark gates it in CI.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..config.space import DesignSpace
from ..core.batch import BatchEvaluator, evaluator_for
from ..core.results import CONFIG_KEYS, ResultSet
from ..core.store import ResultStore, make_provenance, store_keys_batch
from ..obs import MetricsRegistry, get_metrics, set_metrics
from .pareto import ParetoPoint, front_indices

__all__ = ["SearchResult", "search_front"]


@dataclass
class SearchResult:
    """Outcome of one per-app active search."""

    app: str
    front: List[ParetoPoint]
    results: ResultSet            # every evaluated record, canonical order
    n_evaluated: int
    n_space: int
    rounds: int
    converged: bool               # neighborhood closure reached (vs budget)

    @property
    def evaluated_fraction(self) -> float:
        return self.n_evaluated / self.n_space if self.n_space else 0.0


def _front_pool(space: DesignSpace, front: Sequence[int],
                done: np.ndarray) -> List[int]:
    """Unevaluated axis neighbors (+-1 along each axis) of the front.

    Ordered by front member, then axis, then -1 before +1; a point
    reachable from several members keeps its first position.
    """
    lengths = np.array(space.axis_lengths())
    strides = np.array(space.axis_strides())
    idx = np.asarray(front, dtype=np.int64)
    steps = np.array([-1, 1])
    # (front, axis, step) arrays of neighbor coordinates and indices.
    c = space.coords_array(idx)[:, :, None] + steps
    cand = idx[:, None, None] + strides[:, None] * steps
    cand = cand[(c >= 0) & (c < lengths[:, None])]
    cand = cand[~done[cand]]
    _, first = np.unique(cand, return_index=True)
    return cand[np.sort(first)].tolist()


def _seed_indices(space: DesignSpace) -> List[int]:
    """Deterministic seed set: corners + axis cross through the center."""
    lengths = space.axis_lengths()
    center = tuple(length // 2 for length in lengths)
    seeds = space.index_array(
        list(product(*[(0, length - 1) for length in lengths]))
        + [center[:d] + (v,) + center[d + 1:]
           for d, length in enumerate(lengths) for v in range(length)])
    _, first = np.unique(seeds, return_index=True)
    return seeds[np.sort(first)].tolist()


def _fit_quadratic(coords: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares fit of ``y ~ 1 + z + z^2`` per axis (no cross
    terms: keeps the sample requirement at ``2 * d + 1``)."""
    X = np.hstack([np.ones((len(coords), 1)), coords, coords ** 2])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def _predict(coords: np.ndarray, beta: np.ndarray) -> np.ndarray:
    X = np.hstack([np.ones((len(coords), 1)), coords, coords ** 2])
    return X @ beta


def search_front(
    app: str,
    space: Optional[DesignSpace] = None,
    *,
    x_metric: str = "time_ns",
    y_metric: str = "power_total_w",
    n_ranks: int = 256,
    mode: str = "fast",
    max_evals: Optional[int] = None,
    budget_frac: float = 0.2,
    batch_size: int = 64,
    epsilon: float = 0.15,
    patience: Optional[int] = 2,
    seed: int = 0,
    surrogate: bool = False,
    store: Optional[ResultStore] = None,
    code_version: str = "unknown",
    evaluator: Optional[BatchEvaluator] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> SearchResult:
    """Recover one app's Pareto front by active search.

    Parameters
    ----------
    space:
        Design space to explore (default: the full 864-point space; use
        :func:`repro.config.range_design_space` for >=10^5-point range
        spaces).
    max_evals / budget_frac:
        Evaluation budget: explicit point count, or a fraction of the
        space (default 20%).  The budget is a hard cap.
    batch_size:
        Points per batched-evaluator call (the engine's amortization
        unit).
    epsilon:
        Per-slot probability of exploring a uniformly random
        unevaluated point instead of a front neighbor.
    patience:
        Rounds the front must stay unchanged (with its whole
        neighborhood evaluated) before the search stops; ``None``
        disables convergence stopping and runs to the budget — use with
        ``max_evals=len(space)`` for a guaranteed-exhaustive pass.
    surrogate:
        Rank the candidate pool with the quadratic surrogate before
        evaluation (``search.surrogate_rank_calls``).
    store:
        Optional :class:`ResultStore`; each evaluated batch is written
        as one columnar block (:meth:`ResultStore.put_frame`), keyed
        per point on ``(app, config, mode, ranks, code_version)`` — the
        serve layer then answers those points without touching the
        engine.  Points already in the store are reused, not
        re-evaluated.
    evaluator:
        The :class:`BatchEvaluator` to run; by default the process's
        shared one for ``app`` (:func:`~repro.core.batch.evaluator_for`),
        so later fronts of the same app start with warm miss tables.

    Counters: ``search.evaluated`` (points acquired),
    ``search.rounds``, ``search.front_size`` (final front),
    ``search.surrogate_rank_calls``, plus the usual store/engine
    counters.
    """
    if mode not in ("fast", "replay"):
        raise ValueError("mode must be 'fast' or 'replay'")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    space = space or DesignSpace()
    n_space = len(space)
    budget = (int(max_evals) if max_evals is not None
              else max(1, math.ceil(budget_frac * n_space)))
    budget = min(budget, n_space)
    if budget < 1:
        raise ValueError("evaluation budget must be >= 1")

    reg = metrics or get_metrics()
    prev_reg = set_metrics(reg) if reg is not get_metrics() else None
    if evaluator is None:
        evaluator = evaluator_for(app)
    rng = random.Random(seed)

    done = np.zeros(n_space, dtype=bool)
    n_done = 0
    # Every acquired ``(index, ResultSet key, record)``; the key is None
    # for store hits, which go through ``ResultSet.add``.
    acquired: List[Tuple[int, Optional[Tuple], Mapping]] = []
    # Parallel arrays over points that carry both metrics (front space).
    pts_idx: List[int] = []
    pts_x: List[float] = []
    pts_y: List[float] = []
    pts_rec: List[Mapping] = []

    def acquire(indices: Sequence[int]) -> None:
        """Evaluate (or fetch from the store) a batch of space indices."""
        nonlocal n_done
        fresh = [i for i in indices if not done[i]]
        if not fresh:
            return
        nodes = [space.config_at(i) for i in fresh]
        got: List[Optional[Tuple[Optional[Tuple], Mapping]]] = \
            [None] * len(fresh)
        if store is not None:
            for k, key in enumerate(store_keys_batch(
                    app, [node.axis_values() for node in nodes], mode,
                    n_ranks, code_version)):
                entry = store.get(key)
                if entry is not None:
                    got[k] = (None, entry["record"])
        misses = [k for k, g in enumerate(got) if g is None]
        if misses:
            before = reg.snapshot()
            frame = evaluator.evaluate_frame(
                [nodes[k] for k in misses], n_ranks=n_ranks, mode=mode)
            if store is not None:
                delta = reg.delta(before, reg.snapshot())["counters"]
                store.put_frame(frame, mode, n_ranks, code_version,
                                make_provenance("search", delta))
            missing = [k for k in CONFIG_KEYS if k not in frame.keys]
            if missing:
                raise ValueError(f"record missing config keys: {missing}")
            key_cols = [frame.column(k).tolist() for k in CONFIG_KEYS]
            for k, key, rec in zip(misses, zip(*key_cols), frame.rows()):
                got[k] = (key, rec)
        done[fresh] = True
        n_done += len(fresh)
        reg.inc("search.evaluated", len(fresh))
        for i, (key, rec) in zip(fresh, got):
            acquired.append((i, key, rec))
            x, y = rec.get(x_metric), rec.get(y_metric)
            if x is None or y is None:
                continue
            pts_idx.append(i)
            pts_x.append(float(x))
            pts_y.append(float(y))
            pts_rec.append(rec)

    def current_front() -> List[int]:
        return [pts_idx[j] for j in front_indices(pts_x, pts_y)]

    rounds = 0
    converged = False
    try:
        acquire(_seed_indices(space)[:budget])

        stall = 0
        front, prev_front = current_front(), None
        while True:
            room = budget - n_done
            if room <= 0 or n_done >= n_space:
                converged = n_done >= n_space
                break
            pool = _front_pool(space, front, done)
            if patience is not None and not pool and stall >= patience:
                converged = True
                break
            if surrogate and pool:
                pool = _rank_pool(space, pool, pts_idx, pts_x, pts_y, reg)
            batch: List[int] = []
            batch_seen = set()
            for _ in range(min(batch_size, room)):
                pick: Optional[int] = None
                if pool and rng.random() >= epsilon:
                    pick = pool.pop(0)
                else:
                    for _ in range(64):  # rejection-sample the space
                        j = rng.randrange(n_space)
                        if not done[j] and j not in batch_seen:
                            pick = j
                            break
                    if pick is None and pool:
                        pick = pool.pop(0)
                    elif pick is None and n_done + len(batch) < n_space:
                        # Rejection sampling starves when almost nothing
                        # is left; scan from a random start so a
                        # full-budget run really exhausts the space.
                        start = rng.randrange(n_space)
                        free = ~done
                        free[list(batch_seen)] = False
                        rest = np.flatnonzero(np.roll(free, -start))
                        if rest.size:
                            pick = (start + int(rest[0])) % n_space
                if pick is None or pick in batch_seen:
                    continue
                batch_seen.add(pick)
                batch.append(pick)
            if not batch:
                break  # nothing proposable: space effectively exhausted
            acquire(batch)
            rounds += 1
            front = current_front()
            stall = stall + 1 if front == prev_front else 0
            prev_front = front
    finally:
        if prev_reg is not None:
            set_metrics(prev_reg)

    # The final front is read in space-index order, so a tie in (x, y)
    # goes to the lowest index -- exactly pareto_front's rule.
    idx = np.array(pts_idx, dtype=np.int64)
    xs, ys = np.array(pts_x), np.array(pts_y)
    order = np.argsort(idx)
    order = order[~(np.isnan(xs[order]) | np.isnan(ys[order]))]
    if not len(order):
        raise ValueError(f"no records with {x_metric}/{y_metric} for {app}")
    sel = order[front_indices(xs[order], ys[order])].tolist()
    front = [ParetoPoint(config={k: pts_rec[j][k] for k in CONFIG_KEYS},
                         x=pts_x[j], y=pts_y[j]) for j in sel]
    results = ResultSet()
    for _, key, rec in sorted(acquired, key=lambda t: t[0]):
        if key is None:
            results.add(rec)
        else:
            results._add_keyed(key, rec)
    reg.inc("search.rounds", rounds)
    reg.inc("search.front_size", len(front))
    return SearchResult(
        app=app, front=front, results=results,
        n_evaluated=n_done, n_space=n_space, rounds=rounds,
        converged=converged,
    )


def _rank_pool(space: DesignSpace, pool: List[int], pts_idx: List[int],
               pts_x: List[float], pts_y: List[float], reg) -> List[int]:
    """Order the candidate pool by surrogate-predicted promise.

    Fits per-axis quadratics to ``log(x)``/``log(y)`` over the
    normalized coordinates of everything evaluated so far, then sorts
    candidates by the sum of their min-max-normalized predictions
    (low-left corner first).  Falls back to the unranked pool until
    there are enough samples for the 13-parameter fit.
    """
    lengths = space.axis_lengths()
    if len(pts_idx) < 2 * (2 * len(lengths) + 1):
        return pool
    scale = np.array([max(length - 1, 1) for length in lengths],
                     dtype=np.float64)
    zs = space.coords_array(pts_idx) / scale
    log_x = np.log(np.maximum(np.array(pts_x), 1e-300))
    log_y = np.log(np.maximum(np.array(pts_y), 1e-300))
    beta_x = _fit_quadratic(zs, log_x)
    beta_y = _fit_quadratic(zs, log_y)
    zc = space.coords_array(pool) / scale
    px = _predict(zc, beta_x)
    py = _predict(zc, beta_y)

    def minmax(v: np.ndarray) -> np.ndarray:
        span = float(v.max() - v.min())
        return (v - v.min()) / span if span > 0 else np.zeros_like(v)

    score = minmax(px) + minmax(py)
    reg.inc("search.surrogate_rank_calls")
    order = sorted(range(len(pool)), key=lambda j: (score[j], pool[j]))
    return [pool[j] for j in order]

