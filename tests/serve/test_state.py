"""Serve-state contracts: store-backed answers, singleflight,
bit-identity.

The acceptance bar for the serve layer (PR 8):

* a repeated query is served entirely from the store — **zero** engine
  counters move on the second request;
* store-assembled responses are bit-identical to a direct
  :func:`run_sweep` of the same inputs;
* N concurrent identical queries produce exactly one engine evaluation
  and one set of store entries (singleflight), verified via counters.
"""

import threading

import pytest

from repro.analysis.optimize import Constraints, optimize_node
from repro.config import smoke_design_space
from repro.core import ResultSet, run_sweep
from repro.core.canon import canonical_dumps
from repro.core.store import ResultStore
from repro.serve import QueryError, ServeState
from repro.obs import MetricsRegistry, set_metrics

#: Counters that prove the engine ran: one fires per simulated node,
#: the other per phase-column simulation (both modes).
ENGINE_COUNTERS = ("musa.simulate_node", "phase_sim.calls")

SMOKE_QUERY = {"kind": "sweep", "apps": ["spmz"], "space": "smoke"}
N_SMOKE = 8

#: Each is a 400: an unknown field, a non-boolean flag, or a flag
#: combined with any other field.
MALFORMED_INVALIDATIONS = [
    {"stale": True, "bogus": 1},
    {"all": True, "app": "spmz"},
    {"stale": "no"},
    {"all": 1},
    {"stale": True, "all": True},
    {"stale": True, "app": "spmz"},
    {"stale": False, "app": "spmz"},
    {"stale": False},
    {"app": "spmz", "bogus": 1},
    [],
]


@pytest.fixture
def fresh_metrics():
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    try:
        yield reg
    finally:
        set_metrics(prev)


@pytest.fixture
def state(tmp_path, fresh_metrics):
    store = ResultStore(tmp_path / "store.jsonl")
    yield ServeState(store, code_version="testver")
    store.close()


class TestStoreBackedSweep:
    def test_cold_query_evaluates_and_fills_store(self, state,
                                                  fresh_metrics):
        response = state.handle(SMOKE_QUERY)
        assert response["ok"]
        assert response["served"]["evaluated"] == N_SMOKE
        assert response["served"]["store_hits"] == 0
        assert len(state.store) == N_SMOKE
        assert fresh_metrics.counter("store.put") == N_SMOKE

    def test_repeat_query_never_touches_engine(self, state, fresh_metrics):
        state.handle(SMOKE_QUERY)
        before = {c: fresh_metrics.counter(c) for c in ENGINE_COUNTERS}
        assert all(v > 0 for v in before.values())  # cold run did work
        response = state.handle(SMOKE_QUERY)
        assert response["served"] == {
            "store_hits": N_SMOKE, "evaluated": 0, "points": N_SMOKE,
            "code_version": "testver"}
        for c in ENGINE_COUNTERS:
            assert fresh_metrics.counter(c) == before[c], \
                f"engine counter {c} moved on a store-hit query"
        assert fresh_metrics.counter("store.hit") == N_SMOKE

    def test_store_hit_bit_identical_to_run_sweep(self, state):
        cold = state.handle(SMOKE_QUERY)
        warm = state.handle(SMOKE_QUERY)
        direct = run_sweep(["spmz"], smoke_design_space(), processes=1)
        assert ResultSet(warm["result"]["records"]) == direct
        assert canonical_dumps(warm["result"]) == \
            canonical_dumps(cold["result"])

    def test_partial_hit_evaluates_only_missing_points(self, state):
        state.handle({"kind": "sweep", "apps": ["spmz"], "space": "smoke",
                      "subset": {"vector": 128}})
        response = state.handle(SMOKE_QUERY)
        # Half the smoke space (vector=128) was already stored.
        assert response["served"]["store_hits"] == N_SMOKE // 2
        assert response["served"]["evaluated"] == N_SMOKE // 2
        direct = run_sweep(["spmz"], smoke_design_space(), processes=1)
        assert ResultSet(response["result"]["records"]) == direct

    def test_mode_and_ranks_are_keyed_separately(self, state):
        state.handle(SMOKE_QUERY)
        response = state.handle(dict(SMOKE_QUERY, ranks=128))
        assert response["served"]["evaluated"] == N_SMOKE

    def test_store_persists_across_states(self, tmp_path, fresh_metrics):
        path = tmp_path / "persist.jsonl"
        with ResultStore(path) as store:
            ServeState(store, code_version="v").handle(SMOKE_QUERY)
        with ResultStore(path) as store:
            fresh = ServeState(store, code_version="v")
            response = fresh.handle(SMOKE_QUERY)
        assert response["served"]["evaluated"] == 0
        assert response["served"]["store_hits"] == N_SMOKE


class TestSingleflight:
    def test_concurrent_identical_queries_one_evaluation(
            self, state, fresh_metrics):
        n_clients = 6
        barrier = threading.Barrier(n_clients)
        responses = [None] * n_clients
        errors = []

        def client(i):
            try:
                barrier.wait()
                responses[i] = state.handle(dict(SMOKE_QUERY))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Exactly one engine evaluation of the 8 points, one store
        # entry per point, and every follower coalesced.
        assert fresh_metrics.counter("musa.simulate_node") == N_SMOKE
        assert fresh_metrics.counter("store.put") == N_SMOKE
        assert len(state.store) == N_SMOKE
        assert fresh_metrics.counter("serve.singleflight.coalesced") == \
            n_clients - 1
        payloads = {canonical_dumps(r["result"]) for r in responses}
        assert len(payloads) == 1

    def test_sequential_queries_do_not_coalesce(self, state, fresh_metrics):
        state.handle(SMOKE_QUERY)
        state.handle(SMOKE_QUERY)
        assert fresh_metrics.counter("serve.singleflight.coalesced") == 0


class TestBestQuery:
    def test_matches_direct_optimizer(self, state):
        response = state.handle({
            "kind": "best", "apps": ["spmz"], "space": "smoke",
            "objective": "time_ns", "power_cap_w": 500.0})
        direct = optimize_node(
            run_sweep(["spmz"], smoke_design_space(), processes=1),
            objective="time_ns",
            constraints=Constraints(power_cap_w=500.0), apps=["spmz"])
        got = response["result"]
        assert got["config"] == direct.config
        assert got["score"] == direct.score
        assert got["n_feasible"] == direct.n_feasible

    def test_energy_cap_filters_candidates(self, state):
        unconstrained = state.handle({
            "kind": "best", "apps": ["spmz"], "space": "smoke",
            "objective": "time_ns"})
        energies = [r["energy_j"] for r in
                    state.handle(SMOKE_QUERY)["result"]["records"]]
        cap = sorted(e for e in energies if e is not None)[3]
        capped = state.handle({
            "kind": "best", "apps": ["spmz"], "space": "smoke",
            "objective": "time_ns", "energy_cap_j": cap})
        assert capped["result"]["n_feasible"] <= \
            unconstrained["result"]["n_feasible"]

    def test_infeasible_constraints_are_a_query_error(self, state):
        with pytest.raises(QueryError):
            state.handle({"kind": "best", "apps": ["spmz"],
                          "space": "smoke", "power_cap_w": 1e-3})


class TestDeltaQuery:
    def test_pairs_and_geomean(self, state):
        response = state.handle({
            "kind": "delta", "apps": ["spmz"], "space": "smoke",
            "axis": "vector", "a": 128, "b": 512})
        result = response["result"]
        # Smoke space: 8 configs, vector axis has 2 values -> 4 pairs.
        assert len(result["pairs"]) == 4
        for pair in result["pairs"]:
            assert "vector" not in pair["config"]
            assert pair["speedup_b_over_a"] > 0
        assert response["served"]["points"] == N_SMOKE
        geo = result["geomean_speedup_by_app"]["spmz"]
        # Wider vectors never slow these kernels down.
        assert geo >= 1.0

    def test_delta_reuses_sweep_store_entries(self, state):
        state.handle(SMOKE_QUERY)
        response = state.handle({
            "kind": "delta", "apps": ["spmz"], "space": "smoke",
            "axis": "vector", "a": 128, "b": 512})
        assert response["served"]["evaluated"] == 0
        assert response["served"]["store_hits"] == N_SMOKE


class TestInvalidation:
    def test_invalidate_app_forces_reevaluation(self, state,
                                                fresh_metrics):
        state.handle(SMOKE_QUERY)
        assert state.invalidate({"app": "spmz"}) == N_SMOKE
        response = state.handle(SMOKE_QUERY)
        assert response["served"]["evaluated"] == N_SMOKE
        assert fresh_metrics.counter("store.invalidated") == N_SMOKE

    def test_invalidate_stale_keeps_current_version(self, tmp_path,
                                                    fresh_metrics):
        store = ResultStore(tmp_path / "s.jsonl")
        old = ServeState(store, code_version="old")
        old.handle(SMOKE_QUERY)
        cur = ServeState(store, code_version="cur")
        cur.handle(SMOKE_QUERY)
        assert cur.invalidate({"stale": True}) == N_SMOKE
        assert cur.handle(SMOKE_QUERY)["served"]["evaluated"] == 0
        store.close()

    def test_invalidate_rejects_unknown_fields(self, state):
        with pytest.raises(QueryError):
            state.invalidate({"frequency": 2.0})
        with pytest.raises(QueryError):
            state.invalidate({})

    @pytest.mark.parametrize("criteria", MALFORMED_INVALIDATIONS)
    def test_malformed_invalidation_removes_nothing(self, state, criteria):
        state.handle(SMOKE_QUERY)
        with pytest.raises(QueryError):
            state.invalidate(criteria)
        assert len(state.store) == N_SMOKE
        assert state.invalidations == 0

    def test_stale_drops_only_other_versions(self, tmp_path,
                                             fresh_metrics):
        # ``stale`` cannot be narrowed to one app: both apps' old
        # entries go, the current version's stay.
        store = ResultStore(tmp_path / "s.jsonl")
        old = ServeState(store, code_version="old")
        old.handle(SMOKE_QUERY)
        old.handle({**SMOKE_QUERY, "apps": ["hydro"]})
        cur = ServeState(store, code_version="cur")
        cur.handle(SMOKE_QUERY)
        with pytest.raises(QueryError):
            cur.invalidate({"stale": True, "app": "spmz"})
        assert len(store) == 3 * N_SMOKE
        assert cur.invalidate({"stale": True}) == 2 * N_SMOKE
        assert len(store) == N_SMOKE
        assert cur.invalidations == 1
        store.close()


class TestQueryValidation:
    @pytest.mark.parametrize("query", [
        {"kind": "nope"},
        {},
        {"kind": "sweep", "apps": ["nonesuch"]},
        {"kind": "sweep", "mode": "turbo"},
        {"kind": "sweep", "space": "galaxy"},
        {"kind": "sweep", "subset": {"warp": 9}},
        {"kind": "sweep", "space": "smoke", "subset": {"vector": 1024}},
        {"kind": "delta", "axis": "warp", "a": 1, "b": 2},
        {"kind": "delta", "axis": "vector"},
        {"kind": "delta", "axis": "vector", "a": 128, "b": 512,
         "subset": {"vector": 128}},
    ])
    def test_malformed_queries_rejected(self, state, query):
        with pytest.raises(QueryError):
            state.handle(query)

    @pytest.mark.parametrize("field, value", [
        ("ranks", None), ("ranks", "abc"), ("ranks", [4]),
        ("subset", [1, 2]), ("apps", "spmz"),
        *((cap, bad)
          for cap in ("power_cap_w", "area_cap_mm2", "min_frequency_ghz",
                      "energy_cap_j")
          for bad in ("abc", [1], float("nan"), float("inf"))),
    ])
    def test_malformed_fields_are_query_errors(self, state, fresh_metrics,
                                                field, value):
        # A malformed field is the client's error (HTTP 400), raised
        # before any engine or store work.
        query = {"kind": "best", "apps": ["spmz"], "space": "smoke",
                 field: value}
        with pytest.raises(QueryError, match=field):
            state.handle(query)
        assert fresh_metrics.snapshot()["counters"] == {"serve.requests": 1}

    @pytest.mark.parametrize("kind", ["sweep", "best"])
    def test_duplicate_apps_rejected_before_engine_work(
            self, state, fresh_metrics, kind):
        # A repeated app would return every record twice (sweep) or
        # hand the optimizer duplicate records (best): a client error.
        query = {"kind": kind, "apps": ["lulesh", "lulesh"],
                 "space": "smoke"}
        with pytest.raises(QueryError, match="repeat"):
            state.handle(query)
        # No engine counter (nor any other) moved.
        assert fresh_metrics.snapshot()["counters"] == {"serve.requests": 1}
        assert len(state.store) == 0

    def test_normalization_coalesces_default_spellings(self, state,
                                                       fresh_metrics):
        state.handle({"kind": "sweep", "apps": ["spmz"], "space": "smoke"})
        response = state.handle({"kind": "sweep", "apps": ["spmz"],
                                 "space": "smoke", "mode": "fast",
                                 "ranks": 256, "subset": {}})
        # Same normalized query -> same store keys -> pure hits.
        assert response["served"]["evaluated"] == 0
