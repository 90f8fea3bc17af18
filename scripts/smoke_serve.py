#!/usr/bin/env python
"""CI smoke serve: the query API end-to-end over real HTTP.

Starts the asyncio server on an ephemeral port, issues the same sweep
query twice, and asserts the serving contracts:

* the second request is an exact repeat, answered from the rendered
  answer cache: the cache-hit counter moves by one, **zero** store and
  engine counters move, and its bytes equal the uncached answer
  (``ServeState.handle`` rendered), which reports every point as a
  store hit;
* the result payload is byte-identical across servings and bit-
  identical to a direct ``run_sweep`` of the same inputs;
* best/delta queries reuse the same store entries (no re-evaluation):
  a query that is not an exact repeat reads every point from the store;
* invalidation drops the entries and the next query re-evaluates.

Exits non-zero on any violation.

Run from the repo root:  PYTHONPATH=src python scripts/smoke_serve.py
"""

import asyncio
import json
import sys
import tempfile
import threading
from pathlib import Path

from repro.config import smoke_design_space
from repro.core import ResultSet, run_sweep
from repro.core.canon import canonical_dumps
from repro.core.store import ResultStore
from repro.obs import get_metrics
from repro.serve import ReproServer, ServeClient, ServeState

ENGINE_COUNTERS = ("musa.simulate_node", "phase_sim.calls")
QUERY = {"kind": "sweep", "apps": ["spmz"], "space": "smoke"}


def main() -> int:
    space = smoke_design_space()
    print(f"smoke serve: 1 app x {len(space)} configs over HTTP")
    reg = get_metrics()

    tmp = tempfile.mkdtemp()
    store = ResultStore(Path(tmp) / "store.jsonl")
    state = ServeState(store, code_version="smoke")
    server = ReproServer(state, port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run_server():
        asyncio.set_event_loop(loop)

        async def main_coro():
            await server.start()
            started.set()
            await asyncio.Event().wait()

        loop.run_until_complete(main_coro())

    threading.Thread(target=run_server, daemon=True).start()
    assert started.wait(timeout=10), "server did not start"
    client = ServeClient(port=server.port)
    assert client.health()["ok"]

    # 1. Cold query: evaluates every point, fills the store.
    status1, body1 = client.raw_query(QUERY)
    assert status1 == 200, body1
    parsed1 = json.loads(body1)
    assert parsed1["served"]["evaluated"] == len(space), parsed1["served"]
    assert reg.counter("store.put") == len(space)
    print(f"  cold query OK: {parsed1['served']['evaluated']} evaluated, "
          f"{int(reg.counter('store.put'))} store puts")

    # 2. Exact repeat: answered from the answer cache, zero store and
    #    engine counters, bytes equal to the uncached answer.
    watched = ENGINE_COUNTERS + ("store.hit", "store.miss")
    before = {c: reg.counter(c) for c in watched}
    cache_hits = reg.counter("serve.cache.hit")
    status2, body2 = client.raw_query(QUERY)
    assert status2 == 200, body2
    parsed2 = json.loads(body2)
    assert parsed2["served"]["evaluated"] == 0, parsed2["served"]
    assert parsed2["served"]["store_hits"] == len(space), parsed2["served"]
    assert reg.counter("serve.cache.hit") - cache_hits == 1
    for c in watched:
        moved = reg.counter(c) - before[c]
        assert moved == 0, f"counter {c} moved by {moved} on a cache hit"
    uncached = canonical_dumps(state.handle(QUERY)) + "\n"
    assert body2 == uncached.encode("utf-8"), "cached body != uncached"
    assert canonical_dumps(parsed2["result"]) == \
        canonical_dumps(parsed1["result"]), "result payload not byte-stable"
    print(f"  repeat query OK: answer-cache hit, "
          f"{parsed2['served']['store_hits']} points reported as store "
          "hits, zero store and engine work, bytes equal the uncached "
          "answer")

    # 3. Bit-identity against a direct sweep of the same inputs.
    direct = run_sweep(["spmz"], space, processes=1)
    assert ResultSet(parsed2["result"]["records"]) == direct, \
        "served records differ from a direct run_sweep"
    print(f"  bit-identity OK: {len(direct)} records match run_sweep")

    # 4. Best/delta queries reuse the stored points: not exact
    #    repeats, so every point is read from the store.
    hits_before = reg.counter("store.hit")
    best = client.query({"kind": "best", "apps": ["spmz"], "space": "smoke",
                         "objective": "time_ns"})
    assert best["served"]["evaluated"] == 0, best["served"]
    assert reg.counter("store.hit") - hits_before == len(space)
    delta = client.query({"kind": "delta", "apps": ["spmz"],
                          "space": "smoke", "axis": "vector",
                          "a": 128, "b": 512})
    assert delta["served"]["evaluated"] == 0, delta["served"]
    assert len(delta["result"]["pairs"]) == len(space) // 2
    print(f"  best/delta OK: best={best['result']['label']}, "
          f"{len(delta['result']['pairs'])} delta pairs, all from store")

    # 5. Invalidation: entries drop, next query re-evaluates.
    removed = client.invalidate({"app": "spmz"})
    assert removed == len(space), removed
    parsed3 = client.query(QUERY)
    assert parsed3["served"]["evaluated"] == len(space), parsed3["served"]
    assert canonical_dumps(parsed3["result"]) == \
        canonical_dumps(parsed1["result"]), "re-evaluation changed bytes"
    print(f"  invalidation OK: {removed} dropped, re-evaluated "
          "bit-identically")

    derived = client.metrics()["derived"]
    assert derived["serve_requests"] >= 5
    assert derived["store_hit_rate"] is not None
    print(f"  metrics OK: {int(derived['serve_requests'])} requests, "
          f"store hit rate {derived['store_hit_rate']:.2f}")
    print("smoke serve passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
