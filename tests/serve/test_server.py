"""HTTP layer: endpoints, canonical responses, error mapping, and the
cache of rendered answers that exact repeats are served from.

Starts the real asyncio server on an ephemeral port (in a background
thread) and talks to it with the stdlib client — the same path the CI
smoke job exercises.
"""

import asyncio
import json
import random
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.core.canon import canonical_dumps
from repro.core.store import ResultStore
from repro.serve import ReproServer, ServeClient, ServeState
from repro.serve import server as server_mod
from repro.serve.state import MAX_QUERY_RANKS

from .test_state import MALFORMED_INVALIDATIONS
from repro.obs import MetricsRegistry, set_metrics

SMOKE_QUERY = {"kind": "sweep", "apps": ["spmz"], "space": "smoke"}
ENGINE_COUNTERS = ("musa.simulate_node", "phase_sim.calls")


@contextmanager
def _serving(state):
    """A :class:`ReproServer` over ``state``, running in a thread."""
    srv = ReproServer(state, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    stop = None

    def run():
        nonlocal stop
        asyncio.set_event_loop(loop)

        async def main():
            nonlocal stop
            stop = asyncio.Event()
            await srv.start()
            started.set()
            await stop.wait()
            await srv.close()

        loop.run_until_complete(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=10)
    try:
        yield srv
    finally:
        loop.call_soon_threadsafe(stop.set)
        thread.join(timeout=10)
        loop.close()


@pytest.fixture
def server(tmp_path):
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    store = ResultStore(tmp_path / "store.jsonl")
    state = ServeState(store, code_version="httptest")
    try:
        with _serving(state) as srv:
            yield srv, reg
    finally:
        store.close()
        set_metrics(prev)


def test_health_and_metrics(server):
    srv, _ = server
    client = ServeClient(port=srv.port)
    health = client.health()
    assert health["ok"] and health["code_version"] == "httptest"
    assert health["store_entries"] == 0
    client.query(SMOKE_QUERY)
    assert client.health()["store_entries"] == 8
    derived = client.metrics()["derived"]
    assert derived["serve_requests"] == 1
    assert derived["store_puts"] == 8


def test_second_query_is_store_hit_and_byte_identical(server):
    srv, reg = server
    client = ServeClient(port=srv.port)
    status1, body1 = client.raw_query(SMOKE_QUERY)
    status2, body2 = client.raw_query(SMOKE_QUERY)
    assert status1 == status2 == 200
    parsed1, parsed2 = json.loads(body1), json.loads(body2)
    assert parsed2["served"]["evaluated"] == 0
    assert parsed2["served"]["store_hits"] == 8
    # The result payload is canonical JSON: byte-identical across
    # servings (the served-accounting block legitimately differs).
    assert canonical_dumps(parsed1["result"]) == \
        canonical_dumps(parsed2["result"])
    status3, body3 = client.raw_query(SMOKE_QUERY)
    assert body3 == body2  # warm-vs-warm: the whole response matches


def test_bad_query_maps_to_400(server):
    srv, _ = server
    client = ServeClient(port=srv.port)
    status, body = client.raw_query({"kind": "nope"})
    assert status == 400
    assert not json.loads(body)["ok"]
    with pytest.raises(RuntimeError):
        client.query({"kind": "nope"})


@pytest.mark.parametrize("ranks", [MAX_QUERY_RANKS + 1, 10**7])
def test_oversized_ranks_is_400_before_engine_work(server, ranks):
    srv, reg = server
    client = ServeClient(port=srv.port)
    query = dict(SMOKE_QUERY, mode="replay", ranks=ranks)
    status, body = client.raw_query(query)
    assert status == 400
    assert "ranks" in json.loads(body)["error"]
    # No trace was built and nothing was simulated or replayed.
    moved = [name for name in reg.snapshot()["counters"]
             if name.startswith(("musa.", "replay."))]
    assert moved == []


def test_unknown_route_404_and_method_405(server):
    srv, _ = server
    client = ServeClient(port=srv.port)
    status, _ = client._request("GET", "/nonesuch")
    assert status == 404
    status, _ = client._request("GET", "/query")
    assert status == 405


def test_invalidate_endpoint(server):
    srv, _ = server
    client = ServeClient(port=srv.port)
    client.query(SMOKE_QUERY)
    assert client.invalidate({"app": "spmz"}) == 8
    assert client.health()["store_entries"] == 0
    response = client.query(SMOKE_QUERY)
    assert response["served"]["evaluated"] == 8
    with pytest.raises(RuntimeError):
        client.invalidate({"bogus": 1})


def test_malformed_body_is_400(server):
    srv, _ = server
    import http.client
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=30)
    try:
        conn.request("POST", "/query", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 400
    finally:
        conn.close()


# -- the answer cache ---------------------------------------------------------

#: Queries a seeded stream draws from: every kind, both modes, a reordered
#: spelling of the first (the same normalized query), an infeasible
#: constraint and a malformed kind (both 400).
_POOL = (
    SMOKE_QUERY,
    {"kind": "sweep", "apps": ["spmz", "hydro"], "space": "smoke",
     "subset": {"vector": 512}},
    {"kind": "sweep", "apps": ["hydro"], "space": "smoke", "mode": "replay",
     "ranks": 4},
    {"kind": "best", "apps": ["spmz"], "space": "smoke", "objective": "edp"},
    {"kind": "best", "apps": ["hydro"], "space": "smoke",
     "power_cap_w": 1e-3},
    {"kind": "delta", "apps": ["spmz"], "space": "smoke", "axis": "vector",
     "a": 128, "b": 512},
    {"kind": "nope"},
    {"space": "smoke", "mode": "fast", "apps": ["spmz"], "kind": "sweep",
     "ranks": 256},
)
_INVALIDATIONS = ({"app": "spmz"}, {"all": True}, {"mode": "fast"})


def _stream(seed, n=16):
    """``n`` requests drawn from ``seed``: mostly repeats of the pool, one
    ``/invalidate`` in the middle."""
    rng = random.Random(seed)
    steps = [("query", rng.choice(_POOL)) for _ in range(n)]
    steps.insert(n // 2, ("invalidate", rng.choice(_INVALIDATIONS)))
    return steps


def _replay(srv, steps):
    client = ServeClient(port=srv.port)
    out = []
    for kind, body in steps:
        path = "/query" if kind == "query" else "/invalidate"
        out.append(client._request("POST", path, body))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("budget", [server_mod.ANSWER_CACHE_BYTES, 6000])
def test_cached_stream_equals_uncached_server(tmp_path, monkeypatch, seed,
                                              budget):
    # Every response of a seeded stream, with an invalidation in the
    # middle, equals byte for byte what a fresh server that caches
    # nothing returns (a zero budget keeps no answer).  The small
    # budget holds about one answer, so answers are evicted on the way.
    steps = _stream(seed)
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    stores = []
    try:
        got = {}
        for name, nbytes in (("uncached", 0), ("cached", budget)):
            monkeypatch.setattr(server_mod, "ANSWER_CACHE_BYTES", nbytes)
            stores.append(ResultStore(tmp_path / f"{name}.jsonl"))
            state = ServeState(stores[-1], code_version="httptest")
            hits = reg.counter("serve.cache.hit")
            with _serving(state) as srv:
                got[name] = _replay(srv, steps)
            got[name + "_hits"] = reg.counter("serve.cache.hit") - hits
    finally:
        for store in stores:
            store.close()
        set_metrics(prev)
    assert got["uncached_hits"] == 0
    assert got["cached_hits"] > 0
    assert [s for s, _ in got["cached"]].count(400) > 0
    for i, (want, have) in enumerate(zip(got["uncached"], got["cached"])):
        assert have == want, f"step {i} {steps[i]}"
    if budget < 10_000:
        assert reg.counter("serve.cache.evictions") > 0


def test_repeats_are_cache_hits_and_counted(server):
    srv, reg = server
    client = ServeClient(port=srv.port)
    status1, body1 = client.raw_query(SMOKE_QUERY)
    watched = ENGINE_COUNTERS + ("store.hit", "store.miss")
    before = {c: reg.counter(c) for c in watched}
    status2, body2 = client.raw_query(SMOKE_QUERY)
    # The same query spelled differently is the same answer.
    status3, body3 = client.raw_query(_POOL[-1])
    assert status1 == status2 == status3 == 200
    assert body3 == body2
    served = json.loads(body2)["served"]
    assert served["store_hits"] == 8 and served["evaluated"] == 0
    assert canonical_dumps(json.loads(body1)["result"]) == \
        canonical_dumps(json.loads(body2)["result"])
    assert {c: reg.counter(c) for c in watched} == before
    assert reg.counter("serve.cache.hit") == 2
    assert reg.counter("serve.cache.miss") == 1
    assert client.metrics()["derived"]["serve_requests"] == 3
    health = client.health()
    assert health["cache_entries"] == 1
    assert health["cache_bytes"] > len(body2)


def test_errors_are_not_cached(server, monkeypatch):
    srv, reg = server
    client = ServeClient(port=srv.port)
    for _ in range(2):
        assert client.raw_query(_POOL[4])[0] == 400   # infeasible cap
        assert client.raw_query({"kind": "nope"})[0] == 400

    def engine_bug(norm):
        raise RuntimeError("engine bug")

    with monkeypatch.context() as patch:
        patch.setattr(srv.state, "_answer", engine_bug)
        for _ in range(2):
            assert client.raw_query(SMOKE_QUERY)[0] == 500
    assert reg.counter("serve.cache.hit") == 0
    assert client.health()["cache_entries"] == 0
    status, body = client.raw_query(SMOKE_QUERY)
    assert status == 200
    assert json.loads(body)["served"]["evaluated"] == 8


def test_malformed_invalidations_keep_store_and_cache(server):
    srv, reg = server
    client = ServeClient(port=srv.port)
    client.query(SMOKE_QUERY)
    for criteria in MALFORMED_INVALIDATIONS:
        status, body = client._request("POST", "/invalidate", criteria)
        assert status == 400, (criteria, body)
    assert srv.state.invalidations == 0
    assert client.health()["store_entries"] == 8
    assert client.health()["cache_entries"] == 1
    client.query(SMOKE_QUERY)
    assert reg.counter("serve.cache.hit") == 1


def test_direct_state_invalidation_empties_cache(server):
    srv, reg = server
    client = ServeClient(port=srv.port)
    client.query(SMOKE_QUERY)
    client.query(SMOKE_QUERY)
    assert reg.counter("serve.cache.hit") == 1
    assert srv.state.invalidate({"app": "spmz"}) == 8
    response = client.query(SMOKE_QUERY)
    assert response["served"]["evaluated"] == 8
    assert reg.counter("serve.cache.hit") == 1


def test_answer_overlapping_an_invalidation_is_not_cached(server,
                                                          monkeypatch):
    # An invalidation that lands while an answer is being computed may
    # have dropped points that answer read: it must not be cached.
    srv, reg = server
    client = ServeClient(port=srv.port)
    handle = srv.state.handle

    def handle_then_invalidate(query):
        response = handle(query)
        srv.state.invalidate({"all": True})
        return response

    with monkeypatch.context() as patch:
        patch.setattr(srv.state, "handle", handle_then_invalidate)
        assert client.query(SMOKE_QUERY)["served"]["evaluated"] == 8
    assert client.health()["cache_entries"] == 0
    assert client.query(SMOKE_QUERY)["served"]["evaluated"] == 8
    assert reg.counter("serve.cache.hit") == 0


def test_concurrent_queries_and_invalidations(server):
    # Clients race queries against invalidations with a short switch
    # interval.  Every answer's result stays the uncached one, and once
    # the race is over no cached answer outlives an invalidation: each
    # query evaluates every point again.
    srv, reg = server
    pool = (SMOKE_QUERY, _POOL[1], _POOL[3], _POOL[5])
    want = {}
    for q in pool:
        want[canonical_dumps(q)] = canonical_dumps(
            ServeClient(port=srv.port).query(q)["result"])
    errors = []

    def client(seed):
        rng = random.Random(seed)
        c = ServeClient(port=srv.port, timeout_s=60)
        try:
            for _ in range(12):
                if rng.random() < 0.2:
                    c.invalidate(rng.choice(_INVALIDATIONS))
                    continue
                q = rng.choice(pool)
                result = canonical_dumps(c.query(q)["result"])
                if result != want[canonical_dumps(q)]:
                    errors.append(q)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(s,))
                   for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    c = ServeClient(port=srv.port)
    for q in pool:
        c.invalidate({"all": True})
        served = c.query(q)["served"]
        assert served["evaluated"] == served["points"] > 0, q
