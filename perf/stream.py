"""The seeded query stream of the ``serve_mixed`` workload.

Every query names one application, one mode and one rank count —
5 apps x {fast, replay} x ranks {64, 256} on the 864-point Table I
space — so the stream touches 10 replay traces, more than the replay
tape cache's 8 entries.

The stream is built in blocks of 20 queries: 8 *fresh* queries and 12
that *repeat* an earlier query chosen by the seed, the way a warm
service sees popular requests again.  Fresh queries take their (app,
mode, ranks) from seeded shuffles of all 20 combinations, so each is
used equally often, and follow a fixed kind pattern — over the stream 60%
``sweep`` pinning 3-6 axes, 25% ``best`` over such a subspace and 15%
``delta`` comparing two values of one axis with 2-5 others pinned —
and the seed picks their axes and values.  Fixing the kind and
fresh/repeat pattern per position, and drawing only the content from
the seed, keeps the amount of cold engine work nearly the same for
every seed, so runs on different seeds are comparable; pinning keeps
engine batches small and lets fresh queries partly overlap earlier
ones, so store hits and misses interleave.

The same seed always gives the same stream; the program sees only the
generated queries.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List

from repro.apps import APP_NAMES
from repro.config.space import AXES, full_design_space

__all__ = ["BLOCK", "query_stream"]

MODES = ("fast", "replay")
RANKS = (64, 256)
OBJECTIVES = ("time_ns", "energy_j", "edp")

#: One block: ``None`` repeats an earlier query, otherwise the fresh
#: query's kind and how many axes it pins (deltas: besides their axis).
#: 12 repeats; fresh kinds 5 sweep : 2 best : 1 delta, whose repeats
#: keep the stream-wide mix near 60 / 25 / 15.
BLOCK = (("sweep", 3), None, None, ("best", 4), None, ("sweep", 5),
         None, None, ("delta", 3), None, ("sweep", 4), None, None,
         ("best", 3), None, ("sweep", 6), None, None, ("sweep", 3), None)

COMBOS = tuple(itertools.product(APP_NAMES, MODES, RANKS))


def _fresh(rng: random.Random, values: Dict[str, tuple], combo, kind: str,
           pins: int) -> Dict:
    app, mode, ranks = combo
    query = {"kind": kind, "apps": [app], "mode": mode, "ranks": ranks}
    axes = list(AXES)
    if kind == "delta":
        axis = rng.choice(AXES)
        a, b = rng.sample(values[axis], 2)
        query.update(axis=axis, a=a, b=b)
        axes.remove(axis)
    elif kind == "best":
        query["objective"] = rng.choice(OBJECTIVES)
    query["subset"] = {a: rng.choice(values[a])
                       for a in sorted(rng.sample(axes, pins))}
    return query


def query_stream(seed: int, n: int) -> List[Dict]:
    """``n`` queries drawn from ``seed``."""
    rng = random.Random(seed)
    space = full_design_space()
    values = {a: space.axis_values(a) for a in AXES}
    queries: List[Dict] = []
    combos: List = []
    for i in range(n):
        slot = BLOCK[i % len(BLOCK)]
        if slot is None and queries:
            queries.append(dict(rng.choice(queries)))
            continue
        if not combos:
            combos = rng.sample(COMBOS, len(COMBOS))
        kind, pins = slot or ("sweep", 3)
        queries.append(_fresh(rng, values, combos.pop(), kind, pins))
    return queries
