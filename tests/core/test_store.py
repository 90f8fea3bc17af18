"""Content-addressed result store: keys, persistence, invalidation.

The store is the serve layer's memory: a hit must never touch the
engine, so its contracts — key stability, crash-tolerant load,
first-wins duplicates, counted hits/misses, selective invalidation —
are pinned here at the unit level.
"""

import json
import threading

import pytest

from repro.apps import get_app
from repro.config import smoke_design_space
from repro.core.batch import BatchEvaluator
from repro.core.canon import canonical_dumps, canonical_loads
from repro.core.checkpoint import Journal, merge_journal
from repro.core.musa import Musa
from repro.core.store import ResultStore, store_key
from repro.obs import MetricsRegistry, get_metrics, set_metrics


CONFIG = {"core": "medium", "cache": "64M:512K", "memory": "4chDDR4",
          "frequency": 2.0, "vector": 128, "cores": 64}


@pytest.fixture
def fresh_metrics():
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    try:
        yield reg
    finally:
        set_metrics(prev)


def _record(i=0):
    rec = dict(CONFIG)
    rec.update({"app": "lulesh", "time_ns": 1.0e9 + i, "energy_j": 40.0})
    return rec


def _entry_args(i=0, code_version="abc1234", app="lulesh"):
    config = dict(CONFIG)
    key = store_key(app, config, "fast", 256, code_version)
    inputs = {"app": app, "config": config, "mode": "fast", "ranks": 256,
              "code_version": code_version}
    prov = {"engine": "batch", "created_s": 0.0, "obs": {}}
    return key, _record(i), inputs, prov


class TestStoreKey:
    def test_key_order_invariant(self):
        shuffled = dict(reversed(list(CONFIG.items())))
        assert store_key("lulesh", CONFIG, "fast", 256, "v1") == \
            store_key("lulesh", shuffled, "fast", 256, "v1")

    def test_every_input_is_keyed(self):
        base = store_key("lulesh", CONFIG, "fast", 256, "v1")
        assert store_key("spmz", CONFIG, "fast", 256, "v1") != base
        assert store_key("lulesh", CONFIG, "replay", 256, "v1") != base
        assert store_key("lulesh", CONFIG, "fast", 128, "v1") != base
        assert store_key("lulesh", CONFIG, "fast", 256, "v2") != base
        other = dict(CONFIG, vector=512)
        assert store_key("lulesh", other, "fast", 256, "v1") != base


class TestPersistence:
    def test_round_trip(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        key, rec, inputs, prov = _entry_args()
        with ResultStore(path) as store:
            store.put(key, rec, inputs, prov)
        with ResultStore(path) as store:
            assert len(store) == 1
            entry = store.get(key)
        assert entry["record"] == rec
        assert entry["inputs"] == inputs
        assert entry["provenance"]["engine"] == "batch"

    def test_file_is_strict_json(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        key, rec, inputs, prov = _entry_args()
        rec["time_ns"] = float("inf")
        with ResultStore(path) as store:
            store.put(key, rec, inputs, prov)
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda tok: pytest.fail(
                f"non-JSON token {tok!r} in store file"))

    def test_torn_tail_tolerated_and_counted(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        key, rec, inputs, prov = _entry_args()
        with ResultStore(path) as store:
            store.put(key, rec, inputs, prov)
        with path.open("a") as fh:
            fh.write('{"key": "torn')  # crashed writer mid-line
        key2, rec2, inputs2, prov2 = _entry_args(app="spmz")
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.get(key) is not None
            # The reopen cut the torn line off, so this put starts a
            # line of its own and survives the next open.
            store.put(key2, rec2, inputs2, prov2)
        with ResultStore(path) as store:
            assert store.get(key) is not None
            assert store.get(key2) is not None
        assert fresh_metrics.counter("store.corrupt_lines") == 1
        assert fresh_metrics.counter("linelog.tail_repaired") == 1

    def test_duplicate_keys_first_wins(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        key, rec, inputs, prov = _entry_args(0)
        with ResultStore(path) as store:
            first = store.put(key, rec, inputs, prov)
            again = store.put(key, _record(1), inputs, prov)
            assert again == first
        # A duplicate line on disk (e.g. two appenders) also keeps the
        # first occurrence.
        line = path.read_text().splitlines()[0]
        altered = canonical_loads(line)
        altered["record"]["time_ns"] = 9.9e9
        from repro.core.canon import canonical_dumps
        with path.open("a") as fh:
            fh.write(canonical_dumps(altered) + "\n")
        with ResultStore(path) as store:
            assert store.get(key)["record"] == rec
        assert fresh_metrics.counter("store.duplicates_dropped") == 1


class TestCounters:
    def test_hit_and_miss_counted(self, tmp_path, fresh_metrics):
        key, rec, inputs, prov = _entry_args()
        with ResultStore(tmp_path / "s.jsonl") as store:
            assert store.get(key) is None
            store.put(key, rec, inputs, prov)
            assert store.get(key) is not None
            assert store.get(key) is not None
        assert fresh_metrics.counter("store.miss") == 1
        assert fresh_metrics.counter("store.hit") == 2
        assert fresh_metrics.counter("store.put") == 1


class TestInvalidation:
    def test_invalidate_by_input_field(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            for app in ("lulesh", "spmz"):
                key, rec, inputs, prov = _entry_args(app=app)
                store.put(key, rec, inputs, prov)
            assert store.invalidate(app="lulesh") == 1
            assert len(store) == 1
        # Compaction persisted: the removed entry stays gone on reload.
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.entries()[0]["inputs"]["app"] == "spmz"
        assert fresh_metrics.counter("store.invalidated") == 1

    def test_invalidate_stale_code_versions(self, tmp_path, fresh_metrics):
        with ResultStore(tmp_path / "s.jsonl") as store:
            for ver in ("old1", "old2", "cur"):
                key, rec, inputs, prov = _entry_args(code_version=ver)
                store.put(key, rec, inputs, prov)
            assert store.invalidate_stale("cur") == 2
            assert len(store) == 1
            assert store.entries()[0]["inputs"]["code_version"] == "cur"

    def test_invalidate_nothing_matches(self, tmp_path, fresh_metrics):
        key, rec, inputs, prov = _entry_args()
        with ResultStore(tmp_path / "s.jsonl") as store:
            store.put(key, rec, inputs, prov)
            assert store.invalidate(app="nonesuch") == 0
            assert len(store) == 1
        assert fresh_metrics.counter("store.invalidated") == 0

    def test_invalidate_all(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            key, rec, inputs, prov = _entry_args()
            store.put(key, rec, inputs, prov)
            assert store.invalidate() == 1
        with ResultStore(path) as store:
            assert len(store) == 0


class TestThreadSafety:
    def test_concurrent_puts_unique_keys(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path, fsync_every=64)
        errors = []

        def work(tid):
            try:
                for i in range(20):
                    config = dict(CONFIG, frequency=2.0 + tid, vector=128 + i)
                    key = store_key("lulesh", config, "fast", 256, "v1")
                    inputs = {"app": "lulesh", "config": config,
                              "mode": "fast", "ranks": 256,
                              "code_version": "v1"}
                    store.put(key, _record(i), inputs,
                              {"engine": "batch", "created_s": 0.0,
                               "obs": {}})
                    assert store.get(key) is not None
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        store.close()
        with ResultStore(path) as again:
            assert len(again) == 80


class TestResultPlane:
    """The columnar plane (one frame, one block line) writes the same
    content as per-record writes of the scalar reference's records."""

    MODE, RANKS, CV = "fast", 256, "plane"
    PROV = {"engine": "plane"}

    @pytest.fixture(scope="class")
    def plane(self):
        nodes = list(smoke_design_space())
        musa = Musa(get_app("lulesh"))
        frame = BatchEvaluator(musa).evaluate_frame(nodes)
        records = [musa.simulate_node(n, n_ranks=self.RANKS,
                                      mode=self.MODE).record()
                   for n in nodes]
        return nodes, frame, records

    def _ref_keys(self, nodes):
        return [store_key("lulesh", n.axis_values(), self.MODE, self.RANKS,
                          self.CV) for n in nodes]

    def test_put_frame_keys_match_store_key(self, tmp_path, plane):
        nodes, frame, _ = plane
        with ResultStore(tmp_path / "s.jsonl") as store:
            keys = store.put_frame(frame, self.MODE, self.RANKS, self.CV,
                                   self.PROV)
        assert keys == self._ref_keys(nodes)

    def test_block_entries_equal_per_record_puts(self, tmp_path, plane):
        nodes, frame, records = plane
        keys = self._ref_keys(nodes)
        with ResultStore(tmp_path / "ref.jsonl") as ref:
            for node, key, rec in zip(nodes, keys, records):
                ref.put(key, rec, {"app": "lulesh",
                                   "config": node.axis_values(),
                                   "mode": self.MODE, "ranks": self.RANKS,
                                   "code_version": self.CV}, self.PROV)
        with ResultStore(tmp_path / "col.jsonl") as col:
            col.put_frame(frame, self.MODE, self.RANKS, self.CV, self.PROV)
        # Reopened from disk: the block line round-trips too.
        with ResultStore(tmp_path / "ref.jsonl") as ref, \
                ResultStore(tmp_path / "col.jsonl") as col:
            for key in keys:
                assert canonical_dumps(col.get(key)) == \
                    canonical_dumps(ref.get(key))

    def test_block_and_per_record_journals_merge_identically(
            self, tmp_path, plane):
        _, frame, records = plane
        with Journal(tmp_path / "col.jsonl") as j:
            j.append_frame(frame)
        with Journal(tmp_path / "ref.jsonl") as j:
            for rec in records:
                j.append(rec)
        merged = []
        for name in ("col", "ref"):
            out = tmp_path / f"{name}.merged"
            merge_journal([tmp_path / f"{name}.jsonl"], out, collect=False)
            merged.append(out.read_bytes())
        assert merged[0] and merged[0] == merged[1]
