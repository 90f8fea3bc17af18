"""Sweep-as-a-service query engine: store-backed, singleflight, warm.

:class:`ServeState` is the transport-independent heart of ``repro
serve``: it answers design-space queries from the content-addressed
:class:`~repro.core.store.ResultStore`, evaluating only the design
points the store has never seen.  Three invariants make it safe to put
in front of the engine:

* **store hits never touch the engine** — a fully-cached query is
  assembled from stored records without building a trace, running a
  phase simulation or a replay (the tests pin this with engine
  counters);
* **bit-identity** — the unit of storage is one ``(app, config, mode,
  ranks, code_version)`` point, evaluated by the same
  :class:`~repro.core.batch.BatchEvaluator` the sweep engine uses.
  Batched evaluation is bitwise-identical to scalar simulation
  regardless of grouping, so a response assembled from any mix of
  stored and fresh points equals a direct
  :func:`~repro.core.sweep.run_sweep` of the same query — record for
  record, bit for bit;
* **singleflight** — concurrent identical queries coalesce onto one
  evaluation; followers wait for the leader's response instead of
  racing the engine (``serve.singleflight.coalesced`` counts them).

Warm state is shared across requests: the process's one
:class:`BatchEvaluator` per application
(:func:`~repro.core.batch.evaluator_for`; its miss tables and memos
persist), plus the process-global trace and replay-tape caches.  A
single engine lock serializes evaluation — the engine's memos and the
obs registry are not re-entrant, and queries differing in content
don't share work anyway.

Query shapes (plain dicts, the HTTP layer passes JSON bodies through):

``{"kind": "sweep", "apps": [...], "subset": {axis: value-or-list},
   "space": "full"|"smoke", "mode": "fast"|"replay", "ranks": N}``
    The records for every (app, config) in the (restricted) space, in
    canonical sweep order.  ``ranks`` runs from 1 to
    :data:`MAX_QUERY_RANKS` (default 256).

``{"kind": "best", ..., "objective": "time_ns"|"energy_j"|"edp"|...,
   "power_cap_w": W, "area_cap_mm2": A, "min_frequency_ghz": F,
   "energy_cap_j": J}``
    The constrained optimum over the same records, via
    :func:`~repro.analysis.optimize.optimize_node`.

``{"kind": "delta", "axis": <axis>, "a": <value>, "b": <value>, ...}``
    Paired comparison of two hierarchies (two values of one axis, all
    other axes swept): per-pair ratios and per-app geometric means.
"""

from __future__ import annotations

import math
import threading
import time
from numbers import Integral, Real
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.optimize import Constraints, optimize_node
from ..apps import APP_NAMES
from ..config.space import (
    AXES,
    DesignSpace,
    full_design_space,
    smoke_design_space,
)
from ..core.batch import evaluator_for
from ..core.canon import content_digest
from ..core.results import ResultSet
from ..core.store import ResultStore, make_provenance, store_keys_batch
from ..obs import get_metrics

__all__ = ["QueryError", "ServeState"]

#: The most ranks a query may ask for.  Serve builds the trace of every
#: (app, ranks) a query names and keeps it cached, so an unbounded rank
#: count would let one request exhaust the host; the bundled studies
#: replay at most 256 ranks.
MAX_QUERY_RANKS = 4096


class QueryError(ValueError):
    """A malformed or unanswerable query (HTTP 400, not a server bug)."""


class _Flight:
    """One in-flight query: followers wait on the leader's outcome."""

    __slots__ = ("event", "response", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: Optional[Dict] = None
        self.error: Optional[BaseException] = None


class ServeState:
    """Shared server state: store, warm evaluators, in-flight queries."""

    def __init__(self, store: ResultStore, code_version: str) -> None:
        self.store = store
        self.code_version = code_version
        self.started_s = time.time()
        self._engine_lock = threading.Lock()
        self._flights: Dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        #: Store invalidations run so far, counted once each has
        #: finished: an answer cached while this count held still stays
        #: what :meth:`handle` would answer again.
        self.invalidations = 0

    # -- singleflight front door ----------------------------------------------

    def handle(self, query: Dict) -> Dict:
        """Answer one query, coalescing concurrent identical ones.

        The canonical digest of the *normalized* query identifies a
        flight, so requests that differ only in dict ordering or
        omitted defaults still share one evaluation.
        """
        get_metrics().inc("serve.requests")
        norm = self._normalize(query)
        digest = content_digest(norm)
        with self._flights_lock:
            flight = self._flights.get(digest)
            leader = flight is None
            if leader:
                flight = _Flight()
                self._flights[digest] = flight
        if not leader:
            get_metrics().inc("serve.singleflight.coalesced")
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.response
        try:
            flight.response = self._answer(norm)
            return flight.response
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._flights_lock:
                self._flights.pop(digest, None)
            flight.event.set()

    def query_key(self, query: Dict) -> str:
        """The digest :meth:`handle` keys ``query``'s flight by: equal
        for queries that differ only in dict ordering or omitted
        defaults.  Raises :class:`QueryError` as :meth:`handle` would."""
        return content_digest(self._normalize(query))

    def invalidate(self, criteria: Dict) -> int:
        """Selective store invalidation (``{"app": ..., "mode": ...,
        "code_version": ...}``; ``{"stale": true}`` drops every entry
        not produced by this server's code version; ``{"all": true}``
        drops everything).  ``stale`` and ``all`` stand alone.  A
        rejected request raises :class:`QueryError` before the store or
        the invalidation count is touched."""
        if not isinstance(criteria, dict):
            raise QueryError("invalidation must be a JSON object")
        allowed = {"app", "mode", "code_version"}
        unknown = set(criteria) - allowed - {"stale", "all"}
        if unknown:
            raise QueryError(
                f"unknown invalidation fields {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}, 'stale', 'all'")
        flag = next((k for k in ("stale", "all") if k in criteria), None)
        if flag is not None:
            if not isinstance(criteria[flag], bool):
                raise QueryError(f"'{flag}' must be true or false")
            if len(criteria) > 1:
                raise QueryError(f"'{flag}' takes no other field")
        if not criteria or (flag is not None and not criteria[flag]):
            raise QueryError("empty invalidation; pass criteria, "
                             "'stale': true, or 'all': true")
        try:
            if criteria.get("stale"):
                return self.store.invalidate_stale(self.code_version)
            if criteria.get("all"):
                return self.store.invalidate()
            return self.store.invalidate(**criteria)
        finally:
            with self._flights_lock:
                self.invalidations += 1

    # -- query normalization --------------------------------------------------

    def _normalize(self, query: Dict) -> Dict:
        if not isinstance(query, dict):
            raise QueryError("query must be a JSON object")
        kind = query.get("kind")
        if kind not in ("sweep", "best", "delta"):
            raise QueryError(
                f"unknown query kind {kind!r}; expected sweep|best|delta")
        apps = query.get("apps") or list(APP_NAMES)
        if not isinstance(apps, (list, tuple)):
            raise QueryError(f"apps must be a list of app names, "
                             f"got {apps!r}")
        apps = list(apps)
        for app in apps:
            if app not in APP_NAMES:
                raise QueryError(f"unknown app {app!r}; known: {APP_NAMES}")
        if len(set(apps)) != len(apps):
            raise QueryError(f"apps must not repeat a name, got {apps!r}")
        mode = query.get("mode", "fast")
        if mode not in ("fast", "replay"):
            raise QueryError(f"mode must be fast|replay, got {mode!r}")
        space = query.get("space", "full")
        if space not in ("full", "smoke"):
            raise QueryError(f"space must be full|smoke, got {space!r}")
        ranks = query.get("ranks", 256)
        if (isinstance(ranks, bool) or not isinstance(ranks, Integral)
                or not 1 <= ranks <= MAX_QUERY_RANKS):
            raise QueryError(f"ranks must be an integer in 1.."
                             f"{MAX_QUERY_RANKS}, got {ranks!r}")
        ranks = int(ranks)
        subset = query.get("subset") or {}
        if not isinstance(subset, dict):
            raise QueryError(f"subset must be an object mapping axis to "
                             f"value(s), got {subset!r}")
        subset = dict(subset)
        for axis in subset:
            if axis not in AXES:
                raise QueryError(f"unknown axis {axis!r}; valid axes: {AXES}")
        norm = {"kind": kind, "apps": apps, "mode": mode, "space": space,
                "ranks": ranks, "subset": subset,
                "code_version": self.code_version}
        if kind == "best":
            norm["objective"] = query.get("objective", "time_ns")
            for f in ("power_cap_w", "area_cap_mm2", "min_frequency_ghz",
                      "energy_cap_j"):
                v = query.get(f)
                if v is not None and (isinstance(v, bool)
                                      or not isinstance(v, Real)
                                      or not math.isfinite(v)):
                    raise QueryError(f"{f} must be a finite number, "
                                     f"got {v!r}")
                norm[f] = None if v is None else float(v)
        elif kind == "delta":
            axis = query.get("axis")
            if axis not in AXES:
                raise QueryError(
                    f"delta needs 'axis' (one of {AXES}), got {axis!r}")
            if axis in subset:
                raise QueryError(f"delta axis {axis!r} cannot also be "
                                 "pinned in 'subset'")
            if "a" not in query or "b" not in query:
                raise QueryError("delta needs 'a' and 'b' axis values")
            norm["axis"] = axis
            norm["a"] = query["a"]
            norm["b"] = query["b"]
        return norm

    def _space(self, norm: Dict, extra: Optional[Dict] = None) -> DesignSpace:
        base = (smoke_design_space() if norm["space"] == "smoke"
                else full_design_space())
        fixed = dict(norm["subset"])
        fixed.update(extra or {})
        try:
            return base.restrict(**fixed) if fixed else base
        except (KeyError, ValueError) as exc:
            raise QueryError(str(exc)) from exc

    # -- evaluation -----------------------------------------------------------

    def _sweep_records(self, norm: Dict,
                       space: Optional[DesignSpace] = None
                       ) -> Tuple[List[Dict], Dict[str, int]]:
        """Records for every (app, config) of the query, in canonical
        sweep order (app-major, then space row-major) — exactly
        :func:`run_sweep`'s result order.

        Store hits are returned as stored; only misses are evaluated,
        one batched engine call per app, and written back with
        provenance.
        """
        space = space if space is not None else self._space(norm)
        mode, ranks = norm["mode"], norm["ranks"]
        nodes = space.configs()
        axes = [node.axis_values() for node in nodes]
        # Vectorized content addressing: one fragment-spliced key render
        # per point instead of a dict build + canonical serialization
        # (bit-identical to the content digest of the keyed inputs,
        # pinned by the store tests).
        keys = {}
        for app in norm["apps"]:
            for i, key in enumerate(store_keys_batch(
                    app, axes, mode, ranks, self.code_version)):
                keys[(app, i)] = key

        records: Dict[Tuple[str, int], Dict] = {}
        misses: Dict[str, List[int]] = {}
        hits = 0
        for (app, i), key in keys.items():
            entry = self.store.get(key)
            if entry is not None:
                records[(app, i)] = entry["record"]
                hits += 1
            else:
                misses.setdefault(app, []).append(i)

        evaluated = 0
        if misses:
            with self._engine_lock:
                reg = get_metrics()
                for app, idxs in misses.items():
                    before = reg.snapshot()
                    frame = evaluator_for(app).evaluate_frame(
                        [nodes[i] for i in idxs], n_ranks=ranks, mode=mode)
                    delta = reg.delta(before, reg.snapshot())
                    evaluated += len(idxs)
                    # Whole-batch counter deltas, shared by every entry
                    # of the batch's block line: enough to audit *what
                    # kind* of engine work produced it (phase sims,
                    # replay events).  Its vectorized keys match
                    # keys[(app, i)] exactly.
                    self.store.put_frame(
                        frame, mode, ranks, self.code_version,
                        make_provenance("batch", delta.get("counters", {})))
                    for j, i in enumerate(idxs):
                        records[(app, i)] = frame.row(j)

        ordered = [records[(app, i)] for app in norm["apps"]
                   for i in range(len(nodes))]
        served = {"store_hits": hits, "evaluated": evaluated,
                  "points": len(ordered)}
        return ordered, served

    # -- answers --------------------------------------------------------------

    def _answer(self, norm: Dict) -> Dict:
        get_metrics().inc(f"serve.query.{norm['kind']}")
        handler = {"sweep": self._q_sweep, "best": self._q_best,
                   "delta": self._q_delta}[norm["kind"]]
        result, served = handler(norm)
        served["code_version"] = self.code_version
        return {"ok": True, "kind": norm["kind"], "result": result,
                "served": served}

    def _q_sweep(self, norm: Dict) -> Tuple[Dict, Dict]:
        records, served = self._sweep_records(norm)
        return {"records": records}, served

    def _q_best(self, norm: Dict) -> Tuple[Dict, Dict]:
        records, served = self._sweep_records(norm)
        results = ResultSet(records)
        cap_j = norm.get("energy_cap_j")
        if cap_j is not None:
            results = results.filter(
                lambda r: r.get("energy_j") is not None
                and r["energy_j"] <= cap_j)
        cons = Constraints(power_cap_w=norm.get("power_cap_w"),
                           area_cap_mm2=norm.get("area_cap_mm2"),
                           min_frequency_ghz=norm.get("min_frequency_ghz"))
        try:
            choice = optimize_node(results, objective=norm["objective"],
                                   constraints=cons, apps=norm["apps"])
        except ValueError as exc:
            raise QueryError(str(exc)) from exc
        result = {"config": choice.config, "label": choice.label,
                  "objective": choice.objective, "score": choice.score,
                  "per_app": choice.per_app,
                  "n_feasible": choice.n_feasible}
        return result, served

    def _q_delta(self, norm: Dict) -> Tuple[Dict, Dict]:
        axis, val_a, val_b = norm["axis"], norm["a"], norm["b"]
        space_a = self._space(norm, {axis: val_a})
        space_b = self._space(norm, {axis: val_b})
        recs_a, served_a = self._sweep_records(norm, space_a)
        recs_b, served_b = self._sweep_records(norm, space_b)
        # Both spaces iterate the non-delta axes in the same row-major
        # order, so records pair positionally.
        pairs = []
        by_app: Dict[str, List[float]] = {}
        for ra, rb in zip(recs_a, recs_b):
            if ra.get("failed") or rb.get("failed"):
                continue
            speedup = (ra["time_ns"] / rb["time_ns"]
                       if rb["time_ns"] else None)
            energy_ratio = None
            if ra.get("energy_j") and rb.get("energy_j"):
                energy_ratio = rb["energy_j"] / ra["energy_j"]
            pairs.append({
                "app": ra["app"],
                "config": {k: ra[k] for k in
                           ("core", "cache", "memory", "frequency",
                            "vector", "cores") if k != axis},
                "time_ns_a": ra["time_ns"], "time_ns_b": rb["time_ns"],
                "speedup_b_over_a": speedup,
                "energy_ratio_b_over_a": energy_ratio,
            })
            if speedup:
                by_app.setdefault(ra["app"], []).append(speedup)
        summary = {app: float(np.exp(np.mean(np.log(v))))
                   for app, v in sorted(by_app.items())}
        result = {"axis": axis, "a": val_a, "b": val_b, "pairs": pairs,
                  "geomean_speedup_by_app": summary}
        served = {k: served_a[k] + served_b[k] for k in served_a}
        return result, served
