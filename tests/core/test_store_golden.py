"""Store block lines pinned byte for byte.

Two store writers are pinned: a serve sweep that mixes store hits with
misses, and a store-backed active search.  For every block line the
test hashes the per-row keys, the block's shared inputs (mode, ranks,
code version) and the frame payload.  Provenance is left out: it
carries wall-clock time and engine counter deltas.

A change to the worker IPC, the store write path, the key renderer or
the evaluator that moves one stored byte breaks these digests.  An
intentional model or block-format change must update ``GOLDEN`` in the
same commit and say why.
"""

import hashlib

from repro.analysis import search_front
from repro.apps import get_app
from repro.config import DesignSpace, axis_linspace, axis_range
from repro.core.batch import BatchEvaluator
from repro.core.canon import canonical_dumps, canonical_loads
from repro.core.musa import Musa
from repro.core.store import STORE_BLOCK_KEY, ResultStore
from repro.serve import ServeState

GOLDEN = {
    "serve": (4, 20, "52f70e5baa23fae10e8e9be53ca72d3c"
              "036dfc97e121562741c722eb65d83f66"),
    "search": (2, 20, "d7916db42532eac1bd2f41aec30e2925"
               "7ee3b531118760d163f9bbba996395d3"),
}


def _block_digest(path):
    """(block lines, rows, SHA-256) over every block line of a store
    file, provenance excluded."""
    sha = hashlib.sha256()
    n_blocks = n_rows = 0
    for line in path.read_text().splitlines():
        block = canonical_loads(line)[STORE_BLOCK_KEY]
        pinned = {k: block[k] for k in
                  ("keys", "mode", "ranks", "code_version", "frame")}
        sha.update(canonical_dumps(pinned).encode("utf-8") + b"\n")
        n_blocks += 1
        n_rows += len(block["keys"])
    return n_blocks, n_rows, sha.hexdigest()


def test_serve_sweep_with_misses_block_lines(tmp_path):
    path = tmp_path / "store.jsonl"
    with ResultStore(path) as store:
        state = ServeState(store, code_version="golden")
        # Half of lulesh first, then both apps: the second query mixes
        # hits with misses; then a replay query of its own.
        state.handle({"kind": "sweep", "apps": ["lulesh"], "space": "smoke",
                      "subset": {"vector": 128}})
        served = state.handle({"kind": "sweep", "apps": ["lulesh", "spmz"],
                               "space": "smoke"})["served"]
        assert served["store_hits"] == 4 and served["evaluated"] == 12
        state.handle({"kind": "sweep", "apps": ["hydro"], "space": "smoke",
                      "subset": {"core": "medium"}, "mode": "replay",
                      "ranks": 16})
    assert _block_digest(path) == GOLDEN["serve"]


def test_store_backed_search_block_lines(tmp_path):
    space = DesignSpace(core_labels=("medium",), cache_labels=("64M:512K",),
                        memory_labels=("4chDDR4",),
                        frequencies=axis_linspace(1.0, 4.0, 8),
                        vector_widths=(256,),
                        core_counts=axis_range(8, 64, 8))
    path = tmp_path / "store.jsonl"
    with ResultStore(path) as store:
        search_front("lulesh", space, max_evals=20, batch_size=4,
                     store=store, code_version="golden",
                     evaluator=BatchEvaluator(Musa(get_app("lulesh"))))
    assert _block_digest(path) == GOLDEN["search"]
