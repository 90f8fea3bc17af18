"""HTTP layer: endpoints, canonical responses, error mapping.

Starts the real asyncio server on an ephemeral port (in a background
thread) and talks to it with the stdlib client — the same path the CI
smoke job exercises.
"""

import asyncio
import json
import threading

import pytest

from repro.core.canon import canonical_dumps
from repro.core.store import ResultStore
from repro.serve import ReproServer, ServeClient, ServeState
from repro.serve.state import MAX_QUERY_RANKS
from repro.obs import MetricsRegistry, set_metrics

SMOKE_QUERY = {"kind": "sweep", "apps": ["spmz"], "space": "smoke"}


@pytest.fixture
def server(tmp_path):
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    store = ResultStore(tmp_path / "store.jsonl")
    state = ServeState(store, code_version="httptest")
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
        yield srv, reg
    finally:
        loop.call_soon_threadsafe(stop.set)
        thread.join(timeout=10)
        loop.close()
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
